package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// experimentsBin and dsmphasedBin are the two commands the tests run as
// processes, built once in TestMain.
var experimentsBin, dsmphasedBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dsmphased-cli-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experimentsBin = filepath.Join(dir, "experiments")
	dsmphasedBin = filepath.Join(dir, "dsmphased")
	for bin, pkg := range map[string]string{experimentsBin: "dsmphase/cmd/experiments", dsmphasedBin: "dsmphase/cmd/dsmphased"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// experiments runs the experiments binary and returns its stdout.
func experiments(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(experimentsBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestServedReportMatchesDirect drives the service end to end through
// both commands: dsmphased serves on a free port, `experiments -submit`
// renders the served figure2 grid twice — the second answered from the
// result cache — and both must be byte-identical to the direct run.
// SIGTERM then drains the server, which must exit 0.
func TestServedReportMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end service run")
	}
	tmp := t.TempDir()
	addrFile := filepath.Join(tmp, "addr")
	var serverLog bytes.Buffer
	server := exec.Command(dsmphasedBin, "-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", filepath.Join(tmp, "data"), "-experiments", experimentsBin)
	server.Stderr = &serverLog
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	t.Cleanup(func() {
		if !exited {
			server.Process.Kill()
			server.Wait()
		}
	})
	var addr []byte
	for deadline := time.Now().Add(30 * time.Second); len(addr) == 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("dsmphased wrote no -addr-file within 30 s")
		}
		addr, _ = os.ReadFile(addrFile)
	}

	flags := []string{"-size", "test", "-interval", "40000", "-apps", "lu", "-grids", "figure2"}
	direct := experiments(t, flags...)
	submit := append(flags, "-submit", "http://"+string(addr))
	for _, pass := range []string{"served", "cached"} {
		if got := experiments(t, submit...); !bytes.Equal(got, direct) {
			t.Errorf("%s report differs from the direct run:\n--- direct ---\n%s\n--- %s ---\n%s", pass, direct, pass, got)
		}
	}

	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := server.Wait()
	exited = true
	if err != nil {
		t.Errorf("dsmphased after SIGTERM: %v, want exit 0\n%s", err, serverLog.String())
	}
}
