package service

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dsmphase/internal/rng"
)

// The dispatcher's policy under a fake clock: no processes, no sleeps.

// t0 is the fake clock's origin; steps name times as offsets from it.
var t0 = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// never marks a step after which only a finish can decide anything
// (shardMachine.next returns the zero time).
const never = time.Duration(-1)

var errBoom = errors.New("boom")

type event func(m *shardMachine, now time.Time) []decision

func start(m *shardMachine, now time.Time) []decision { return m.start(now, nil) }
func tick(m *shardMachine, now time.Time) []decision  { return m.tick(now) }

func ok(id int) event {
	return func(m *shardMachine, now time.Time) []decision { return m.finished(now, id, nil) }
}

func fail(id int) event {
	return func(m *shardMachine, now time.Time) []decision { return m.finished(now, id, errBoom) }
}

// mstep feeds one event at t0+at and wants exactly these decisions,
// rendered by render. A non-zero next also pins m.next() after it
// (as an offset from t0, or never).
type mstep struct {
	at   time.Duration
	ev   event
	want []string
	next time.Duration
}

func render(ds []decision) []string {
	var out []string
	for _, d := range ds {
		switch d.op {
		case "dispatch", "retry", "straggler":
			s := fmt.Sprintf("launch a%d s%d#%d w%d %s", d.id, d.shard, d.attempt, d.worker, d.op)
			if d.probe {
				s += " probe"
			}
			out = append(out, s)
		case "cancel":
			out = append(out, fmt.Sprintf("cancel a%d", d.id))
		case "accept":
			out = append(out, fmt.Sprintf("accept s%d a%d", d.shard, d.id))
		case "exhaust":
			out = append(out, fmt.Sprintf("exhaust s%d: %v", d.shard, d.err))
		case "quarantine":
			out = append(out, fmt.Sprintf("benched w%d", d.worker))
		case "worker-restored":
			out = append(out, fmt.Sprintf("restored w%d", d.worker))
		default:
			out = append(out, "unknown op "+d.op)
		}
	}
	return out
}

// testMachineConfig is a filled Config whose retry backoff always
// lies in [5ms, 15ms), so a tick 20ms after a failure finds the retry
// due whatever the jitter.
func testMachineConfig(mutate func(*Config)) Config {
	cfg := Config{
		RetryBase:       10 * time.Millisecond,
		RetryMax:        10 * time.Millisecond,
		StragglerAfter:  time.Hour,
		MaxAttempts:     3,
		QuarantineAfter: 5,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.fill()
	return cfg
}

// runSteps feeds steps to m in order and fails at the first mismatch.
func runSteps(t *testing.T, m *shardMachine, steps []mstep) {
	t.Helper()
	for i, s := range steps {
		got := render(s.ev(m, t0.Add(s.at)))
		if !reflect.DeepEqual(got, s.want) && (len(got) != 0 || len(s.want) != 0) {
			t.Fatalf("step %d (at %v): decisions\n  %q\nwant\n  %q", i, s.at, got, s.want)
		}
		switch next := m.next(); {
		case s.next == never && !next.IsZero():
			t.Fatalf("step %d: next = %v, want never", i, next.Sub(t0))
		case s.next > 0 && !next.Equal(t0.Add(s.next)):
			t.Fatalf("step %d: next = %v, want %v", i, next.Sub(t0), s.next)
		}
	}
}

func TestShardMachine(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name    string
		cfg     func(*Config)
		shards  int
		workers []workerRow
		steps   []mstep
	}{{
		name:    "exhaustion at MaxAttempts",
		cfg:     func(c *Config) { c.MaxAttempts = 2 },
		shards:  1,
		workers: make([]workerRow, 1),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}, next: time.Hour}, // a backup check
			{at: 0, ev: fail(0)},
			{at: 20 * ms, ev: tick, want: []string{"launch a1 s0#1 w0 retry"}, next: never},
			{at: 30 * ms, ev: fail(1), want: []string{"exhaust s0: all 2 attempts failed, last: boom"}, next: never},
		},
	}, {
		name:    "backup on a healthy idle worker within budget; the loser is ignored",
		cfg:     func(c *Config) { c.StragglerAfter, c.MaxAttempts, c.QuarantineAfter = time.Second, 2, 1 },
		shards:  1,
		workers: make([]workerRow, 2),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}, next: time.Second},
			{at: 999 * ms, ev: tick},
			{at: time.Second, ev: tick, want: []string{"launch a1 s0#1 w1 straggler"}, next: never},
			{at: 5 * time.Second, ev: tick}, // the budget is spent: no third attempt
			{at: 6 * time.Second, ev: ok(1), want: []string{"accept s0 a1", "cancel a0"}, next: never},
			// The cancelled loser's failure neither retries nor scores w0.
			{at: 6*time.Second + ms, ev: fail(0), next: never},
		},
	}, {
		name:    "no backup while the only idle worker is benched; due again one StragglerAfter later",
		cfg:     func(c *Config) { c.StragglerAfter = time.Second },
		shards:  1,
		workers: []workerRow{{}, {benched: true, fails: 5}},
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}, next: time.Second},
			{at: time.Second, ev: tick, next: 2 * time.Second},
			{at: 2 * time.Second, ev: tick, next: 3 * time.Second},
			{at: 2500 * ms, ev: ok(0), want: []string{"accept s0 a0"}, next: never},
		},
	}, {
		name:    "timeout cancels the attempt and its finish is a failure",
		cfg:     func(c *Config) { c.AttemptTimeout, c.MaxAttempts = time.Second, 1 },
		shards:  1,
		workers: make([]workerRow, 1),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}, next: time.Second},
			{at: time.Second, ev: tick, want: []string{"cancel a0"}, next: never},
			{at: 1100 * ms, ev: fail(0), want: []string{"exhaust s0: all 1 attempts failed, last: attempt timed out after 1s: boom"}},
		},
	}, {
		name:    "quarantine after N failures, probe only with no healthy worker idle, restore on success",
		cfg:     func(c *Config) { c.QuarantineAfter, c.MaxAttempts = 2, 5 },
		shards:  2,
		workers: make([]workerRow, 2),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch", "launch a1 s1#0 w1 dispatch"}},
			{at: 0, ev: fail(0)},
			{at: 20 * ms, ev: tick, want: []string{"launch a2 s0#1 w0 retry"}},
			{at: 30 * ms, ev: fail(2), want: []string{"benched w0"}},
			{at: 60 * ms, ev: tick, want: []string{"launch a3 s0#2 w0 retry probe"}},
			{at: 70 * ms, ev: ok(3), want: []string{"restored w0", "accept s0 a3"}},
			{at: 80 * ms, ev: ok(1), want: []string{"accept s1 a1"}, next: never},
		},
	}, {
		name:    "shards wait for a free worker and take it in shard order",
		shards:  3,
		workers: make([]workerRow, 1),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}},
			{at: 5 * time.Second, ev: ok(0), want: []string{"accept s0 a0", "launch a1 s1#0 w0 dispatch"}},
			// w0 frees up before s1's retry is due, so the waiting s2 takes it.
			{at: 6 * time.Second, ev: fail(1), want: []string{"launch a2 s2#0 w0 dispatch"}},
			// s1's retry is due but w0 is busy: only s2's backup check is
			// scheduled, so a blocked retry never spins the clock.
			{at: 7 * time.Second, ev: tick, next: 6*time.Second + time.Hour},
			{at: 8 * time.Second, ev: ok(2), want: []string{"accept s2 a2", "launch a3 s1#1 w0 retry"}},
			{at: 9 * time.Second, ev: ok(3), want: []string{"accept s1 a3"}, next: never},
		},
	}, {
		name: "a backup that succeeds during the backoff is accepted and the retry never launches",
		cfg: func(c *Config) {
			c.StragglerAfter, c.RetryBase, c.RetryMax = time.Second, 10*time.Second, 10*time.Second
		},
		shards:  1,
		workers: make([]workerRow, 2),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}},
			{at: time.Second, ev: tick, want: []string{"launch a1 s0#1 w1 straggler"}},
			{at: 2 * time.Second, ev: fail(0)},
			{at: 3 * time.Second, ev: ok(1), want: []string{"accept s0 a1"}, next: never},
			{at: 30 * time.Second, ev: tick, next: never},
		},
	}, {
		name:    "a coordinator-side failure is retried but never scores the worker",
		cfg:     func(c *Config) { c.QuarantineAfter, c.MaxAttempts = 1, 2 },
		shards:  1,
		workers: make([]workerRow, 1),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}},
			{at: 0, ev: func(m *shardMachine, now time.Time) []decision {
				return m.finished(now, 0, localError{errBoom})
			}},
			{at: 20 * ms, ev: tick, want: []string{"launch a1 s0#1 w0 retry"}},
			{at: 30 * ms, ev: ok(1), want: []string{"accept s0 a1"}, next: never},
		},
	}, {
		name:    "after stop, nothing launches and finishes score nothing",
		cfg:     func(c *Config) { c.QuarantineAfter = 1 },
		shards:  3,
		workers: make([]workerRow, 2),
		steps: []mstep{
			{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch", "launch a1 s1#0 w1 dispatch"}},
			{at: time.Second, ev: func(m *shardMachine, now time.Time) []decision { m.stop(); return m.tick(now) }, next: never},
			{at: 2 * time.Second, ev: fail(0), next: never},
			{at: 3 * time.Second, ev: ok(1), next: never},
		},
	}, {
		name:    "recovered shards are never dispatched",
		shards:  3,
		workers: make([]workerRow, 2),
		steps: []mstep{
			{at: 0, ev: func(m *shardMachine, now time.Time) []decision { return m.start(now, []bool{true, false, true}) },
				want: []string{"launch a0 s1#0 w0 dispatch"}},
			{at: time.Second, ev: ok(0), want: []string{"accept s1 a0"}, next: never},
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newShardMachine(testMachineConfig(tc.cfg), "", tc.shards, tc.workers)
			runSteps(t, m, tc.steps)
			if !m.done() {
				t.Fatal("machine not done after the last step")
			}
		})
	}
}

// TestShardMachineBackoff pins the retry schedule: retry k is due
// exactly retryDelay(shard, k) after the failure before it, a tick
// earlier launches nothing, and each delay lies in [d/2, 3d/2) for d
// = RetryBase doubling per retry, capped at RetryMax.
func TestShardMachineBackoff(t *testing.T) {
	cfg := testMachineConfig(func(c *Config) {
		c.RetryBase, c.RetryMax, c.MaxAttempts = 100*time.Millisecond, 300*time.Millisecond, 5
	})
	m := newShardMachine(cfg, "0123456789abcdef", 1, make([]workerRow, 1))
	now := t0
	if got := render(m.start(now, nil)); !reflect.DeepEqual(got, []string{"launch a0 s0#0 w0 dispatch"}) {
		t.Fatalf("start: %q", got)
	}
	d := cfg.RetryBase
	for k := 1; k < cfg.MaxAttempts; k++ {
		now = now.Add(time.Second)
		if got := m.finished(now, k-1, errBoom); len(got) != 0 {
			t.Fatalf("failure %d launched at once: %q", k, render(got))
		}
		delay := m.next().Sub(now)
		if delay != m.retryDelay(0, k) {
			t.Fatalf("retry %d due after %v, retryDelay says %v", k, delay, m.retryDelay(0, k))
		}
		if delay < d/2 || delay >= d+d/2 {
			t.Fatalf("retry %d backoff %v outside [%v, %v)", k, delay, d/2, d+d/2)
		}
		if got := m.tick(now.Add(delay - 1)); len(got) != 0 {
			t.Fatalf("retry %d launched early: %q", k, render(got))
		}
		now = now.Add(delay)
		want := []string{fmt.Sprintf("launch a%d s0#%d w0 retry", k, k)}
		if got := render(m.tick(now)); !reflect.DeepEqual(got, want) {
			t.Fatalf("retry %d: %q, want %q", k, got, want)
		}
		if d *= 2; d > cfg.RetryMax {
			d = cfg.RetryMax
		}
	}
	// The jitter is keyed on (fingerprint, shard, attempt): replayable,
	// and spread across shards.
	again := newShardMachine(cfg, "0123456789abcdef", 1, nil)
	spread := false
	for k := 1; k < 4; k++ {
		if again.retryDelay(0, k) != m.retryDelay(0, k) {
			t.Fatalf("retry %d: same key, different delays", k)
		}
		spread = spread || m.retryDelay(0, k) != m.retryDelay(1, k)
	}
	if !spread {
		t.Fatal("shards 0 and 1 draw identical retry delays")
	}
}

// TestWorkerPoolQuarantine drives the circuit breaker through the
// machine, over health rows that persist across jobs: consecutive
// failures bench a worker, a benched worker is handed out only as a
// probe when no healthy worker is idle and never for a straggler
// backup, and a probe success restores it to regular and backup
// dispatch alike.
func TestWorkerPoolQuarantine(t *testing.T) {
	ms := time.Millisecond
	cfg := testMachineConfig(func(c *Config) { c.QuarantineAfter, c.StragglerAfter = 2, time.Second })
	rows := make([]workerRow, 2)
	quarantined := func() int {
		n := 0
		for _, r := range rows {
			if r.benched {
				n++
			}
		}
		return n
	}

	// Job 1: w0 fails twice in a row and is benched; the retry then goes
	// to the healthy w1 though w0 is idle and listed first.
	runSteps(t, newShardMachine(cfg, "", 1, rows), []mstep{
		{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch"}},
		{at: 0, ev: fail(0)}, // one failure: no transition
		{at: 20 * ms, ev: tick, want: []string{"launch a1 s0#1 w0 retry"}},
		{at: 30 * ms, ev: fail(1), want: []string{"benched w0"}},
		{at: 60 * ms, ev: tick, want: []string{"launch a2 s0#2 w1 retry"}},
		{at: 70 * ms, ev: ok(2), want: []string{"accept s0 a2"}},
	})
	if got := quarantined(); got != 1 {
		t.Fatalf("quarantined after job 1 = %d, want 1", got)
	}

	// Job 2: the straggler backup never burns a probe on the benched w0.
	runSteps(t, newShardMachine(cfg, "", 1, rows), []mstep{
		{at: 0, ev: start, want: []string{"launch a0 s0#0 w1 dispatch"}},
		{at: time.Second, ev: tick, next: 2 * time.Second},
		{at: 1500 * ms, ev: ok(0), want: []string{"accept s0 a0"}},
	})

	// Job 3: with w1 busy, w0 is handed out as a probe; a failed probe
	// keeps it benched, a successful one restores it.
	runSteps(t, newShardMachine(cfg, "", 2, rows), []mstep{
		{at: 0, ev: start, want: []string{"launch a0 s0#0 w1 dispatch", "launch a1 s1#0 w0 dispatch probe"}},
		{at: 10 * ms, ev: fail(1)},
		{at: 40 * ms, ev: tick, want: []string{"launch a2 s1#1 w0 retry probe"}},
		{at: 50 * ms, ev: ok(2), want: []string{"restored w0", "accept s1 a2"}},
		{at: 60 * ms, ev: ok(0), want: []string{"accept s0 a0"}},
	})
	if got := quarantined(); got != 0 {
		t.Fatalf("quarantined after restore = %d", got)
	}
	// Job 4: the restored w0 takes regular dispatches and straggler
	// backups again.
	runSteps(t, newShardMachine(cfg, "", 2, rows), []mstep{
		{at: 0, ev: start, want: []string{"launch a0 s0#0 w0 dispatch", "launch a1 s1#0 w1 dispatch"}},
		{at: 100 * ms, ev: ok(0), want: []string{"accept s0 a0"}},
		{at: time.Second, ev: tick, want: []string{"launch a2 s1#1 w0 straggler"}},
	})
}

// TestShardMachineProperties drives seeded random machines with
// random finishes and clock advances and checks the invariants the
// shell and the fault plane rely on: no shard exceeds MaxAttempts, no
// worker runs two attempts at once, a benched worker runs only probes
// (never a backup) and only with no healthy worker idle, per-shard
// attempt numbers count 0, 1, 2, …, each shard ends exactly once, and
// the machine never stalls with nothing running.
func TestShardMachineProperties(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		cfg := testMachineConfig(func(c *Config) {
			c.MaxAttempts = 1 + r.Intn(4)
			c.QuarantineAfter = 1 + r.Intn(3)
			c.StragglerAfter = time.Duration(1+r.Intn(5)) * 100 * time.Millisecond
			if r.Intn(2) == 0 {
				c.AttemptTimeout = time.Duration(1+r.Intn(10)) * 100 * time.Millisecond
			}
			c.RetryBase = time.Duration(1+r.Intn(50)) * time.Millisecond
			c.RetryMax = 200 * time.Millisecond
		})
		shards := 1 + r.Intn(5)
		rows := make([]workerRow, 1+r.Intn(4))
		benched := make([]bool, len(rows))
		for w := range rows {
			if r.Intn(4) == 0 {
				rows[w] = workerRow{benched: true, fails: cfg.QuarantineAfter}
				benched[w] = true
			}
		}
		violate := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
		}

		m := newShardMachine(cfg, fmt.Sprintf("%x", seed), shards, rows)
		busy := make([]bool, len(rows))
		attempts := make([]int, shards)
		ends := make([]int, shards)
		var live []int      // attempt handles launched and not finished
		workerOf := []int{} // by attempt handle
		check := func(ds []decision) {
			for _, d := range ds {
				switch d.op {
				case "dispatch", "retry", "straggler":
					if d.attempt != attempts[d.shard] {
						violate("shard %d launched attempt %d after %d", d.shard, d.attempt, attempts[d.shard])
					}
					if attempts[d.shard]++; attempts[d.shard] > cfg.MaxAttempts {
						violate("shard %d launched %d attempts, MaxAttempts %d", d.shard, attempts[d.shard], cfg.MaxAttempts)
					}
					if ends[d.shard] > 0 {
						violate("shard %d launched after it ended", d.shard)
					}
					if busy[d.worker] {
						violate("worker %d launched while running an attempt", d.worker)
					}
					if benched[d.worker] != d.probe {
						violate("worker %d benched=%v launched with probe=%v", d.worker, benched[d.worker], d.probe)
					}
					if d.probe && d.op == "straggler" {
						violate("straggler backup on benched worker %d", d.worker)
					}
					if d.probe {
						for w := range busy {
							if !busy[w] && !benched[w] {
								violate("probe on worker %d while healthy worker %d idle", d.worker, w)
							}
						}
					}
					if d.id != len(workerOf) {
						violate("attempt handle %d, want %d", d.id, len(workerOf))
					}
					busy[d.worker] = true
					workerOf = append(workerOf, d.worker)
					live = append(live, d.id)
				case "accept", "exhaust":
					if ends[d.shard]++; ends[d.shard] > 1 {
						violate("shard %d ended twice", d.shard)
					}
					if d.op == "exhaust" && attempts[d.shard] != cfg.MaxAttempts {
						violate("shard %d exhausted after %d of %d attempts", d.shard, attempts[d.shard], cfg.MaxAttempts)
					}
				case "quarantine":
					benched[d.worker] = true
				case "worker-restored":
					benched[d.worker] = false
				}
			}
			for w := range rows {
				if rows[w].busy != busy[w] || rows[w].benched != benched[w] {
					violate("worker %d row %+v, model busy=%v benched=%v", w, rows[w], busy[w], benched[w])
				}
			}
		}

		now := t0
		check(m.start(now, nil))
		for steps := 0; !m.done(); steps++ {
			if steps > 10_000 {
				violate("no end after %d steps", steps)
			}
			running := 0
			for _, s := range m.shards {
				running += s.running
			}
			if running != len(live) {
				violate("%d attempts running, model has %d", running, len(live))
			}
			if len(live) > 0 && r.Intn(3) > 0 {
				k := r.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				busy[workerOf[id]] = false
				var err error
				if r.Intn(3) > 0 {
					err = errBoom
				}
				now = now.Add(time.Duration(r.Intn(100)) * time.Millisecond)
				check(m.finished(now, id, err))
				continue
			}
			next := m.next()
			if next.IsZero() && len(live) == 0 {
				violate("stalled: shards pending, nothing running, nothing scheduled")
			}
			if !next.IsZero() && r.Intn(2) == 0 {
				now = next
			} else {
				now = now.Add(time.Duration(r.Intn(500)) * time.Millisecond)
			}
			check(m.tick(now))
		}
		if len(live) > 0 {
			violate("done with %d attempts still live", len(live))
		}
		for s, n := range ends {
			if n != 1 {
				violate("shard %d ended %d times", s, n)
			}
		}
	}
}
