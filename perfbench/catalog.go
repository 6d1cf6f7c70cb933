package main

// metricSpec is one reported metric: its name, unit and which direction
// is better. BENCHMARK.json at the repository root declares the same
// lists; TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// streamOps are the shard operations of one stream pass that get a
// per-layer breakdown, in pass order.
var streamOps = []string{"encode", "decode", "degraded", "repair"}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (an untraced run): the stream workloads through
// shard's entry points, array-oltp through raidsim's. The mapping is:
//
//	metric              stream-lib / stream-rs3     array-oltp
//	write_MBps          EncodeOpts                  healthy 4 KiB Write
//	read_MBps           clean DecodeReport          healthy 4 KiB Read
//	degraded_read_MBps  DecodeReport, m shards lost 4 KiB Read, 2 disks failed
//	rebuild_MBps        RepairOpts                  ReplaceDisk of both disks
//	scrub_MBps          Verify after repair         Scrub after CorruptDisk
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_MiB", "MiB", "lower"},
	{"write_MBps", "MB/s", "higher"},
	{"read_MBps", "MB/s", "higher"},
	{"degraded_read_MBps", "MB/s", "higher"},
	{"rebuild_MBps", "MB/s", "higher"},
	{"scrub_MBps", "MB/s", "higher"},
}

// perLayer is the traced run's split. Metrics of a layer a workload
// never enters (store and shard on array-oltp, raidsim on the streams)
// read 0 there.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{name, unit, better}) }
	for _, op := range streamOps {
		p := "store." + op + "."
		add(p+"read_bytes", "B", "lower")
		add(p+"read_calls", "count", "lower")
		add(p+"write_bytes", "B", "lower")
		add(p+"write_calls", "count", "lower")
		add(p+"sync_calls", "count", "lower")
		add(p+"open_calls", "count", "lower")
		add(p+"read_frac", "frac", "lower")
		add(p+"write_frac", "frac", "lower")
		add(p+"sync_frac", "frac", "lower")
	}
	add("store.decode.read_amp", "x", "lower")
	add("store.degraded.read_amp", "x", "lower")
	add("store.repair.read_amp", "x", "lower")
	for _, op := range streamOps {
		add("shard."+op+".self_frac", "frac", "lower")
	}
	add("shard.encode.source_frac", "frac", "lower")
	add("shard.decode.sink_frac", "frac", "lower")
	for _, op := range streamOps {
		add("codes."+op+".insitu_frac", "frac", "lower")
	}
	for _, op := range streamOps {
		add("runtime."+op+".alloc_bytes", "B", "lower")
		add("runtime."+op+".gc_cycles", "count", "lower")
	}
	add("codes.encode_GBps", "GB/s", "higher")
	add("codes.decode_GBps", "GB/s", "higher")
	add("codes.correct_GBps", "GB/s", "higher")
	add("codes.update_ns", "ns", "lower")
	add("codes.encode_xors_per_stripe", "count", "lower")
	add("codes.decode_xors_per_stripe", "count", "lower")
	add("pipeline.encode_GBps", "GB/s", "higher")
	add("pipeline.queue_wait_frac", "frac", "lower")
	add("xorblk.xorinto_GBps", "GB/s", "higher")
	add("xorblk.xorinto4_GBps", "GB/s", "higher")
	add("raidsim.xors_per_write", "count", "lower")
	add("raidsim.write_amp", "x", "lower")
	add("raidsim.degraded_reads", "count", "lower")
	add("raidsim.stripes_rebuilt", "count", "lower")
	add("raidsim.rebuild_xors", "count", "lower")
	add("raidsim.scrub_repairs", "count", "higher")
	add("raidsim.read_alloc_bytes_per_op", "B", "lower")
	add("raidsim.write_alloc_bytes_per_op", "B", "lower")
	add("obs.trace_overhead_frac", "frac", "lower")
	add("host.speed", "x", "higher")
	add("error_rate", "frac", "lower")
	return out
}()
