package service

import (
	"fmt"
	"strconv"
	"time"

	"dsmphase/internal/rng"
)

// shardMachine makes every dispatch decision of one job. Events go in
// (start, an attempt's finish, a clock tick), each carrying the current
// time, and decisions come out for runShards to carry out. It reads no
// clock and touches no process, file or lock, so tests drive the whole
// retry, straggler and timeout policy (Config documents each knob)
// under a fake clock. Jobs run one at a time and runShards waits out
// every attempt, so the machine owns the pool's busy bits for the job's
// whole life; the workers are interchangeable local processes, and each
// launch takes the lowest-index idle one.
type shardMachine struct {
	cfg      Config
	seed     uint64 // retry jitter key: the plan fingerprint
	busy     []bool // by worker: running an attempt
	shards   []shardRow
	attempts []attemptRow // by attempt handle
	now      time.Time    // the latest event's time
	out      []decision
}

// decision is one output; op is an Event type. "dispatch", "retry" and
// "straggler" launch attempt id, the shard's attempt-th, on worker.
// "cancel" cancels attempt id. "accept" ends the shard with attempt
// id's artifact and "exhaust" with err.
type decision struct {
	op                         string
	id, shard, attempt, worker int
	err                        error
}

type shardRow struct {
	attempts int       // launched, stragglers included
	running  int       // launched and not finished
	waiting  bool      // a launch is owed: the first dispatch or a retry
	retryAt  time.Time // the owed launch starts no earlier
	backupAt time.Time // a straggler backup is due then
	ended    bool
}

type attemptRow struct {
	shard, worker int
	deadline      time.Time // zero: no AttemptTimeout
	live          bool      // not finished
	cancelled     bool      // timed out, or the shard ended
}

// newShardMachine takes a filled cfg (Config.fill) and the pool size.
func newShardMachine(cfg Config, fingerprint string, shards, workers int) *shardMachine {
	seed, _ := strconv.ParseUint(fingerprint, 16, 64)
	return &shardMachine{cfg: cfg, seed: seed, busy: make([]bool, workers), shards: make([]shardRow, shards)}
}

// start owes every shard its first dispatch, except the recovered ones
// (nil recovers none), which end here.
func (m *shardMachine) start(now time.Time, recovered []bool) []decision {
	for i := range m.shards {
		if i < len(recovered) && recovered[i] {
			m.shards[i].ended = true
		} else {
			m.shards[i].waiting, m.shards[i].retryAt = true, now
		}
	}
	return m.tick(now)
}

// finished reports attempt id's end; err is nil only for a validated
// artifact. Once its shard has ended, an attempt's finish only frees
// its worker.
func (m *shardMachine) finished(now time.Time, id int, err error) []decision {
	a := &m.attempts[id]
	s := &m.shards[a.shard]
	a.live = false
	s.running--
	m.busy[a.worker] = false
	if s.ended {
		return m.tick(now)
	}
	if err != nil && a.cancelled {
		err = fmt.Errorf("attempt timed out after %v: %w", m.cfg.AttemptTimeout, err)
	}
	switch {
	case err == nil:
		s.ended, s.waiting = true, false
		m.emit(decision{op: "accept", id: id, shard: a.shard})
		for k := range m.attempts {
			if o := &m.attempts[k]; o.shard == a.shard && o.live && !o.cancelled {
				o.cancelled = true
				m.emit(decision{op: "cancel", id: k})
			}
		}
	case s.attempts < m.cfg.MaxAttempts:
		if !s.waiting {
			s.waiting, s.retryAt = true, now.Add(m.retryDelay(a.shard, s.attempts))
		}
	case s.running == 0:
		s.ended = true
		m.emit(decision{op: "exhaust", shard: a.shard,
			err: fmt.Errorf("all %d attempts failed, last: %w", s.attempts, err)})
	}
	return m.tick(now)
}

// tick lets the clock reach now: deadlines expire, and owed launches
// and straggler backups that are due go to idle workers, shard order.
func (m *shardMachine) tick(now time.Time) []decision {
	m.now = now
	for id := range m.attempts {
		if a := &m.attempts[id]; a.expires() && !now.Before(a.deadline) {
			a.cancelled = true
			m.emit(decision{op: "cancel", id: id})
		}
	}
	for i := range m.shards {
		s := &m.shards[i]
		if !s.waiting || now.Before(s.retryAt) {
			continue
		}
		w := m.idle()
		if w < 0 {
			break
		}
		op := "dispatch"
		if s.attempts > 0 {
			op = "retry"
		}
		m.launch(now, op, i, w)
	}
	for i := range m.shards {
		if s := &m.shards[i]; m.backupOwed(s) && !now.Before(s.backupAt) {
			if w := m.idle(); w >= 0 {
				m.launch(now, "straggler", i, w)
			} else {
				s.backupAt = now.Add(m.cfg.StragglerAfter)
			}
		}
	}
	out := m.out
	m.out = nil
	return out
}

// next is the earliest time a tick can decide something; the zero time
// when only a finish can.
func (m *shardMachine) next() time.Time {
	var t time.Time
	consider := func(u time.Time) {
		if u.After(m.now) && (t.IsZero() || u.Before(t)) {
			t = u
		}
	}
	for i := range m.attempts {
		if a := &m.attempts[i]; a.expires() {
			consider(a.deadline)
		}
	}
	for i := range m.shards {
		if s := &m.shards[i]; s.waiting {
			consider(s.retryAt)
		} else if m.backupOwed(s) {
			consider(s.backupAt)
		}
	}
	return t
}

// stop ends every shard, as on coordinator shutdown: nothing more
// launches, and the running attempts' finishes only free their workers.
func (m *shardMachine) stop() {
	for i := range m.shards {
		m.shards[i].ended, m.shards[i].waiting = true, false
	}
}

// done reports that every shard has ended and every attempt finished.
func (m *shardMachine) done() bool {
	for _, s := range m.shards {
		if !s.ended || s.running > 0 {
			return false
		}
	}
	return true
}

// expires reports that the attempt has a deadline still to enforce.
func (a *attemptRow) expires() bool {
	return a.live && !a.cancelled && !a.deadline.IsZero()
}

func (m *shardMachine) backupOwed(s *shardRow) bool {
	return !s.ended && !s.waiting && s.running > 0 && s.attempts < m.cfg.MaxAttempts
}

// idle returns the lowest-index idle worker; -1 when every worker is
// busy.
func (m *shardMachine) idle() int {
	for w, busy := range m.busy {
		if !busy {
			return w
		}
	}
	return -1
}

func (m *shardMachine) launch(now time.Time, op string, shard, w int) {
	s := &m.shards[shard]
	a := attemptRow{shard: shard, worker: w, live: true}
	if m.cfg.AttemptTimeout > 0 {
		a.deadline = now.Add(m.cfg.AttemptTimeout)
	}
	m.attempts = append(m.attempts, a)
	m.emit(decision{op: op, id: len(m.attempts) - 1, shard: shard, attempt: s.attempts, worker: w})
	s.attempts++
	s.running++
	s.waiting = false
	s.backupAt = now.Add(m.cfg.StragglerAfter)
	m.busy[w] = true
}

func (m *shardMachine) emit(d decision) { m.out = append(m.out, d) }

// retryDelay is the backoff before launching retry attempt `attempt`
// (1-based): RetryBase doubling per attempt, capped at RetryMax, with
// deterministic jitter in [0.5d, 1.5d) keyed on (plan fingerprint,
// shard, attempt) — spread out in anger, replayable under test.
func (m *shardMachine) retryDelay(shard, attempt int) time.Duration {
	d := m.cfg.RetryBase
	for i := 1; i < attempt && d < m.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > m.cfg.RetryMax {
		d = m.cfg.RetryMax
	}
	h := rng.Hash64(m.seed)
	h = rng.Hash64(h ^ uint64(shard+1))
	h = rng.Hash64(h ^ uint64(attempt))
	frac := float64(h%1024) / 1024 // [0, 1)
	return d/2 + time.Duration(frac*float64(d))
}
