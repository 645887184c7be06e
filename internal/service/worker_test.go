package service

import (
	"context"
	"strings"
	"testing"
)

func TestParseWorker(t *testing.T) {
	w, err := ParseWorker("local", 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "local-0" {
		t.Fatalf("local worker name = %q", w.Name())
	}
	if _, err := ParseWorker("carrier-pigeon://host", 1); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := ParseWorker("ssh://farm7/opt/dsm/experiments", 1); err == nil {
		t.Fatal("ssh worker accepted")
	} else if !strings.Contains(err.Error(), `"local"`) {
		t.Fatalf("error %q does not name the accepted spelling", err)
	}
}

func TestLocalWorkerStderrTail(t *testing.T) {
	w, err := ParseWorker("local", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background(), "/bin/sh", []string{"-c", "echo the-failing-cell >&2; exit 7"})
	if err == nil {
		t.Fatal("failing child reported success")
	}
	if want := "the-failing-cell"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the child's stderr tail %q", err, want)
	}
}
