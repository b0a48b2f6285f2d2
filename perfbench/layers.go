package main

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A workload reports the layers it calls; the others read 0 there
// (statemachine, for one, does no work on serve).
var perLayer = []struct{ name, unit string }{
	// sweep: self time of each section call, and the engine's counters.
	{"bench.profile_s", "s"},
	{"bench.table1_s", "s"},
	{"bench.table2_s", "s"},
	{"bench.table3_s", "s"},
	{"bench.table4_s", "s"},
	{"bench.table5_s", "s"},
	{"bench.staticpred_s", "s"},
	{"bench.figures_s", "s"},
	{"bench.measured_s", "s"},
	{"bench.crossdataset_s", "s"},
	{"bench.layout_s", "s"},
	{"bench.scope_s", "s"},
	{"bench.joint_s", "s"},
	{"bench.indirect_s", "s"},
	{"runner.jobs", "count"},
	{"runner.cache_hit_ratio", "ratio"},
	{"interp.live_runs", "count"},
	// sweep and serve: branch events recorded by and replayed from traces.
	{"trace.recorded_events", "count"},
	{"trace.replayed_events", "count"},
	// compile: self time of each layer call, and what the layers produced.
	{"lang.compile_s", "s"},
	{"interp.profile_run_s", "s"},
	{"interp.run_s", "s"},
	{"interp.branches_per_s", "1/s"},
	{"predict.analyze_s", "s"},
	{"statemachine.select_s", "s"},
	{"replicate.apply_s", "s"},
	{"analysis.verify_s", "s"},
	{"statemachine.loop_machines", "count"},
	{"statemachine.exit_machines", "count"},
	{"statemachine.path_machines", "count"},
	{"replicate.skipped", "count"},
	{"ir.instrs_in", "count"},
	{"ir.instrs_out", "count"},
	// serve: client-side latency per endpoint, and the server's counters.
	{"service.analyze.p50_ms", "ms"},
	{"service.analyze.p99_ms", "ms"},
	{"service.profile.p50_ms", "ms"},
	{"service.profile.p99_ms", "ms"},
	{"service.machines.p50_ms", "ms"},
	{"service.machines.p99_ms", "ms"},
	{"service.replicate.p50_ms", "ms"},
	{"service.replicate.p99_ms", "ms"},
	{"service.score.p50_ms", "ms"},
	{"service.score.p99_ms", "ms"},
	{"runner.store_hit_ratio", "ratio"},
	{"diskstore.hit_ratio", "ratio"},
	{"diskstore.evictions", "count"},
	{"service.rejected", "count"},
	{"runner.job_s", "s"},
	// every workload: the traced run itself.
	{"trace.wall_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.self_sum_pct", "%"},
}
