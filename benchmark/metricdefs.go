package main

// metricDef names one reported metric.  BENCHMARK.json at the root of the
// repository lists the same names and units; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndDefs are what a user of the system sees, per workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_img_s", "images/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"peak_arena_mib", "MiB", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"ok_frac", "fraction", "higher"},
}

// perLayerDefs are the traced run's metrics, grouped by module.
var perLayerDefs = []metricDef{
	// kernels
	{"kernels.direct_share", "fraction", "lower"},
	{"kernels.direct_gflops", "GFLOP/s", "higher"},
	{"kernels.gemm_share", "fraction", "lower"},
	{"kernels.gemm_gflops", "GFLOP/s", "higher"},
	{"kernels.fft_share", "fraction", "lower"},
	{"kernels.fft_gflops", "GFLOP/s", "higher"},
	{"kernels.pool_share", "fraction", "lower"},
	{"kernels.pool_gbs", "GB/s", "higher"},
	{"kernels.softmax_share", "fraction", "lower"},
	{"kernels.backward_data_share", "fraction", "lower"},
	{"kernels.backward_filter_share", "fraction", "lower"},
	{"kernels.gemm256_gflops", "GFLOP/s", "higher"},
	// fft
	{"fft.split2d_mpts_s", "Mpts/s", "higher"},
	// layers
	{"layers.fc_share", "fraction", "lower"},
	{"layers.lrn_share", "fraction", "lower"},
	{"layers.relu_share", "fraction", "lower"},
	// tensor
	{"tensor.transform_share", "fraction", "lower"},
	{"tensor.convert_gbs", "GB/s", "higher"},
	// layout + autotune + frameworks: planning and selection
	{"plan.time_ms", "ms", "lower"},
	{"select.direct_layers", "count", "lower"},
	{"select.gemm_layers", "count", "higher"},
	{"select.fft_layers", "count", "higher"},
	{"select.transform_ops", "count", "lower"},
	{"select.regret_max", "ratio", "lower"},
	{"select.regret_geomean", "ratio", "lower"},
	{"select.direct_skipped", "count", "lower"},
	{"select.fft_skipped", "count", "lower"},
	// runtime: compile + memplan
	{"compile.time_ms", "ms", "lower"},
	{"compile.verify_ms", "ms", "lower"},
	{"compile.ops", "count", "lower"},
	{"compile.buffers", "count", "lower"},
	{"memplan.peak_bytes", "bytes", "lower"},
	{"memplan.naive_bytes", "bytes", "lower"},
	{"memplan.saved_frac", "fraction", "higher"},
	{"memplan.scratch_bytes", "bytes", "lower"},
	// runtime: executor + pool
	{"executor.run_ms", "ms", "lower"},
	{"executor.cold_run_ms", "ms", "lower"},
	{"executor.self_share", "fraction", "lower"},
	{"executor.allocs_per_run", "count", "lower"},
	{"executor.alloc_bytes_per_run", "bytes", "lower"},
	{"executor.naive_ratio", "ratio", "higher"},
	// runtime: pipeline, runtime/replica
	{"pipeline.run_ms", "ms", "lower"},
	{"pipeline.speedup", "ratio", "higher"},
	{"replica.run_ms", "ms", "lower"},
	{"replica.speedup", "ratio", "higher"},
	// runtime: server + cache, and the load generator that drives them
	{"server.requests", "count", "higher"},
	{"server.batches", "count", "lower"},
	{"server.avg_batch", "count", "higher"},
	{"server.pad_frac", "fraction", "lower"},
	{"server.queue_wait_p50_ms", "ms", "lower"},
	{"server.queue_wait_p99_ms", "ms", "lower"},
	{"server.batch_p50_ms", "ms", "lower"},
	{"server.batch_p99_ms", "ms", "lower"},
	{"server.overhead_p50_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"server.expired", "count", "lower"},
	{"server.errors", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.backlog_s", "s", "lower"},
	{"cache.hit_frac", "fraction", "higher"},
	{"cache.hit_p50_us", "us", "lower"},
	// runtime/train
	{"train.compile_ms", "ms", "lower"},
	{"train.step_ms", "ms", "lower"},
	{"train.fwd_share", "fraction", "lower"},
	{"train.recompute_share", "fraction", "lower"},
	{"train.sgd_share", "fraction", "lower"},
	{"train.recompute_ops", "count", "lower"},
	{"train.peak_bytes", "bytes", "lower"},
	{"train.store_peak_bytes", "bytes", "lower"},
	{"train.allocs_per_step", "count", "lower"},
	{"train.naive_ratio", "ratio", "higher"},
	// obs and the harness
	{"obs.instrument_overhead_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.op_coverage_frac", "fraction", "higher"},
	{"host.probe_ms", "ms", "lower"},
}
