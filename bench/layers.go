package main

import (
	"time"
)

// The per-layer ledger of a traced run: one value per metric per pass
// (served: per job), reported as the median over the run's traced
// passes. A layer a workload does not reach reads 0.

// layerNames lists every per-layer metric; BENCHMARK.json declares the
// same set with units.
var layerNames = []string{
	"workloads.gen_s", "workloads.instrs",
	"machine.sim_s", "machine.self_s", "machine.ns_per_instr", "machine.instrs",
	"machine.intervals", "machine.sims", "machine.sim_cycles", "machine.remote_frac",
	"engine.cells", "engine.cells_per_sim",
	"sweep.s", "sweep.classifications", "sweep.ns_per_classification",
	"tuning.hook_s", "tuning.steps",
	"report.assemble_s", "report.encode_s", "report.bytes",
	"shard.write_s", "shard.read_s", "shard.merge_s", "shard.bytes",
	"service.submit_ms", "service.queue_ms", "service.worker_exec_s", "service.coord_s",
	"service.render_ms", "service.cache_hit_ms", "service.attempts", "service.retries",
	"go.alloc_mb", "go.gc_cycles",
	"trace.wall_s", "trace.coverage", "trace.overhead_frac",
}

func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		v[n] = 0
	}
	return v
}

// layerSpans are the spans that stand for a layer's own work; what the
// pass spends outside them is the ledger's uncovered time.
var layerSpans = []string{
	"machine.simulate", "sweep", "tuning.hook", "report.assemble", "report.encode",
	"shard.write", "shard.read", "shard.merge",
}

// inprocLayers computes one traced in-process pass's ledger. gen and
// genInstrs come from the separate generation drain; alloc and gcs are
// the runtime's allocation and GC counts over the pass.
func inprocLayers(l *ledger, p passOut, gen time.Duration, genInstrs, alloc, gcs uint64) map[string]float64 {
	v := zeroLayers()
	self := l.selfByName(p.root)
	sec := func(name string) float64 { return self[name].Seconds() }
	machineLayers(v, p.t)
	sim := sec("machine.simulate")
	v["workloads.gen_s"] = gen.Seconds()
	v["workloads.instrs"] = float64(genInstrs)
	v["machine.sim_s"] = sim
	v["machine.self_s"] = sim - gen.Seconds()
	v["machine.ns_per_instr"] = ratio(sim*1e9, v["machine.instrs"])
	v["sweep.s"] = sec("sweep")
	v["sweep.classifications"] = float64(p.t.classifications)
	v["sweep.ns_per_classification"] = ratio(sec("sweep")*1e9, float64(p.t.classifications))
	v["tuning.hook_s"] = sec("tuning.hook")
	v["tuning.steps"] = float64(p.t.tuningSteps)
	v["report.assemble_s"] = sec("report.assemble")
	v["report.encode_s"] = sec("report.encode")
	v["report.bytes"] = float64(p.t.reportBytes)
	v["shard.write_s"] = sec("shard.write")
	v["shard.read_s"] = sec("shard.read")
	v["shard.merge_s"] = sec("shard.merge")
	v["shard.bytes"] = float64(p.t.shardBytes)
	v["go.alloc_mb"] = float64(alloc) / (1 << 20)
	v["go.gc_cycles"] = float64(gcs)
	v["trace.wall_s"] = p.wall.Seconds()
	var covered float64
	for _, n := range layerSpans {
		covered += sec(n)
	}
	v["trace.coverage"] = ratio(covered, p.wall.Seconds())
	return v
}

// servedLayers computes one traced job's ledger. The simulation layers
// run inside the worker processes, so only their counts are known, read
// from the job's merged artifact; hit is the run's median cache-hit
// latency in seconds.
func servedLayers(l *ledger, j jobOut, hit float64) (map[string]float64, error) {
	v := zeroLayers()
	t, err := artifactTally(j.art)
	if err != nil {
		return nil, err
	}
	machineLayers(v, t)
	self := l.selfByName(j.root)
	exec := self["service.worker_exec"]
	st := j.status
	var queue, run time.Duration
	if st.Started != nil && st.Finished != nil {
		queue, run = st.Started.Sub(st.Created), st.Finished.Sub(*st.Started)
	}
	v["service.submit_ms"] = ms(self["service.submit"])
	v["service.queue_ms"] = ms(queue)
	v["service.worker_exec_s"] = exec.Seconds()
	v["service.coord_s"] = (run - exec).Seconds()
	v["service.render_ms"] = ms(self["service.render"])
	v["service.cache_hit_ms"] = hit * 1e3
	v["service.attempts"] = float64(j.attempts)
	v["service.retries"] = float64(j.retries)
	for _, b := range j.bytes {
		v["report.bytes"] += float64(len(b))
	}
	v["go.alloc_mb"] = float64(j.alloc) / (1 << 20)
	v["go.gc_cycles"] = float64(j.gcs)
	v["trace.wall_s"] = j.wall.Seconds()
	covered := self["service.submit"] + queue + run + self["service.render"]
	v["trace.coverage"] = ratio(covered.Seconds(), j.wall.Seconds())
	return v, nil
}

// machineLayers fills the simulation counts of a pass's distinct
// simulations: simulated statistics that a host-only change leaves
// exactly as they are.
func machineLayers(v map[string]float64, t *tally) {
	var instrs, local, remote uint64
	var intervals int
	var cycles float64
	for _, s := range t.sims {
		instrs += s.Instructions
		intervals += s.Intervals
		cycles += s.Cycles
		local += s.LocalAccesses
		remote += s.RemoteAccesses
	}
	v["machine.instrs"] = float64(instrs)
	v["machine.intervals"] = float64(intervals)
	v["machine.sims"] = float64(len(t.sims))
	v["machine.sim_cycles"] = cycles
	v["machine.remote_frac"] = ratio(float64(remote), float64(local+remote))
	v["engine.cells"] = float64(t.cells)
	v["engine.cells_per_sim"] = ratio(float64(t.cells), float64(len(t.sims)))
}

// medians reduces per-pass ledgers to the per-metric median.
func medians(passes []map[string]float64) map[string]float64 {
	out := zeroLayers()
	for _, n := range layerNames {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[n]
		}
		out[n] = median(xs)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
