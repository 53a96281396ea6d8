package main

// metricSpec is one metric of the JSON line, as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_events_per_s", "1/s", "higher"},
	{"mem_peak_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricSpec{
	{"machine.new_ms.hn1", "ms", "lower"},
	{"machine.new_ms.hn2", "ms", "lower"},
	{"machine.new_ms.hn16", "ms", "lower"},
	{"machine.new_alloc_mb.hn16", "MB", "lower"},
	{"memsys.access_ns.hit", "ns", "lower"},
	{"memsys.access_ns.local", "ns", "lower"},
	{"memsys.access_ns.hypernode", "ns", "lower"},
	{"memsys.access_ns.global", "ns", "lower"},
	{"memsys.rmw_ns", "ns", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"sim.delay_ns", "ns", "lower"},
	{"threads.forkjoin_ms", "ms", "lower"},
	{"threads.barrier_ms", "ms", "lower"},
	{"parsim.round_us", "us", "lower"},
	{"service.submit_hot_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.cycles", "count", "lower"},
	{"mem.accesses", "count", "lower"},
	{"mem.hits", "count", "higher"},
	{"mem.local_misses", "count", "lower"},
	{"mem.hypernode_misses", "count", "lower"},
	{"mem.global_misses", "count", "lower"},
	{"mem.hit_ratio", "ratio", "higher"},
	{"threads.forks", "count", "lower"},
	{"threads.barrier_episodes", "count", "lower"},
	{"ring.packets", "count", "lower"},
	{"work.useful_ratio", "ratio", "higher"},
}
