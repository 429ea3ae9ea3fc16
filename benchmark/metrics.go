package main

// decl is one declared metric. The two lists below must equal the
// end_to_end and per_layer lists of BENCHMARK.json name for name and unit
// for unit; TestSmokeEmitsDeclaredMetrics holds the two files together.
type decl struct{ name, unit string }

// endToEnd is printed by a --trace 0 run. Every workload measures every
// one of them; README.md says what a "window" is on each workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"tau_sdpd", "sim-days/day"},
	{"window_ms_p50", "ms"},
	{"window_ms_p90", "ms"},
	{"allocs_per_window", "count"},
	{"alloc_kb_per_window", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is printed by a --trace 1 run. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []decl{
	// Whole-path numbers of one workload only: the driver's contract wants
	// every end-to-end metric from every workload, so these six carry no
	// bound; the universal end-to-end metrics above contain them.
	{"ckpt_ms_per_window", "ms"},
	{"ckpt_bytes_per_window", "B"},
	{"restore_ms_p50", "ms"},
	{"inproc_solve_ms_p50", "ms"},
	{"socket_solve_ms_p50", "ms"},
	{"solves_per_s", "1/s"},

	{"coupler.gpu_side_ms_pw", "ms"},
	{"coupler.cpu_side_ms_pw", "ms"},
	{"coupler.critical_side_frac", "frac"},
	{"coupler.glue_ms_pw", "ms"},
	{"coupler.healthcheck_ms", "ms"},
	{"coupler.snapshot_ms", "ms"},
	{"coupler.apply_snapshot_ms", "ms"},
	{"coupler.supervisor_overhead_ms_pw", "ms"},

	{"atmos.diag_ms_pw", "ms"},
	{"atmos.ekinh_ms_pw", "ms"},
	{"atmos.tangential_ms_pw", "ms"},
	{"atmos.vn_pred_ms_pw", "ms"},
	{"atmos.hflux_ms_pw", "ms"},
	{"atmos.vsolve_ms_pw", "ms"},
	{"atmos.vn_corr_ms_pw", "ms"},
	{"atmos.damp_ms_pw", "ms"},
	{"atmos.transport_ms_pw", "ms"},
	{"atmos.physics_ms_pw", "ms"},
	{"atmos.step_ms", "ms"},
	{"atmos.cell_level_updates_per_s", "1/s"},
	{"atmos.modelled_gb_pw", "GB"},
	{"atmos.launches_pw", "count"},

	{"land.step_ms_pw", "ms"},
	{"land.step_ms", "ms"},
	{"land.kernels_per_step", "count"},
	{"land.ns_per_kernel", "ns"},

	{"ocean.pressure_ms_pw", "ms"},
	{"ocean.momentum_ms_pw", "ms"},
	{"ocean.barotropic_ms_pw", "ms"},
	{"ocean.advect_ms_pw", "ms"},
	{"ocean.mixing_ms_pw", "ms"},
	{"ocean.seaice_ms_pw", "ms"},
	{"ocean.step_ms", "ms"},
	{"ocean.cg_iters_per_solve", "count"},
	{"ocean.cg_allreduces_pw", "count"},
	{"ocean.serial_solve_ms", "ms"},

	{"bgc.transport_ms_pw", "ms"},
	{"bgc.ecosystem_ms_pw", "ms"},
	{"bgc.sinking_ms_pw", "ms"},
	{"bgc.airsea_ms_pw", "ms"},
	{"bgc.step_ms", "ms"},
	{"bgc.tracer_cell_updates_per_s", "1/s"},
	{"bgc.transport_modelled_gb_pw", "GB"},

	{"exec.launches_pw", "count"},
	{"exec.launch_overhead_ns", "ns"},
	{"exec.replay_overhead_ns_per_kernel", "ns"},
	{"exec.modelled_bytes_pw", "B"},
	{"exec.sim_tau", "x"},
	{"exec.sim_atm_wait_frac", "frac"},

	{"sched.workers", "count"},
	{"sched.dispatch_ns", "ns"},
	{"sched.reduce_ns", "ns"},
	{"sched.blocks_per_dispatch", "count"},
	{"sched.parallel_speedup_x", "x"},

	{"grid.build_ms", "ms"},
	{"grid.divergence_ns_per_cell", "ns"},
	{"grid.gradient_ns_per_edge", "ns"},
	{"grid.laplacian_ns_per_cell", "ns"},
	{"grid.laplacian_levels_ns_per_cell_level", "ns"},
	{"gen.ke_vn_ns_per_cell_level", "ns"},
	{"gen.perot_vt_ns_per_edge_level", "ns"},

	{"restart.write_ms_p50", "ms"},
	{"restart.write_mb_per_s", "MB/s"},
	{"restart.load_ms_p50", "ms"},
	{"restart.bytes_per_gen", "B"},
	{"restart.checksum_ms", "ms"},
	{"restart.clone_ms", "ms"},
	{"restart.async_unhidden_ms_pw", "ms"},
	{"restart.legacy_multifile_write_ms", "ms"},

	{"par.allreduce_us", "us"},
	{"par.halo_exchange_us", "us"},
	{"par.allreduces_per_solve", "count"},
	{"par.halo_bytes_per_solve", "B"},
	{"par.msgs_per_solve", "count"},
	{"par.bytes_sent_per_solve", "B"},
	{"par.halo_overlap_frac", "frac"},
	{"par.dist_over_serial_x", "x"},

	{"socket.allreduce_us", "us"},
	{"socket.halo_exchange_us", "us"},
	{"socket.wire_bytes_per_solve", "B"},
	{"socket.mesh_connect_ms", "ms"},

	{"trace.overhead_frac", "frac"},
	{"trace.spans_pw", "count"},
	{"trace.host_slowdown_x", "x"},
}
