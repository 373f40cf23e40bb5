package main

import "sort"

// perLayer lists the traced run's metrics, layer.metric, layers named
// after the modules. README.md says which end-to-end metric each is
// expected to move on which workload. Every workload reports every
// one; a layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"nfsclient.self_s", "s"},          // generator-op time not covered by a client-hop RPC
	{"nfsclient.rpcs_per_op", "count"}, // client-hop RPCs / operations
	{"nfsclient.page_hit_ratio", "ratio"},
	{"nfsclient.read_rpcs_per_op", "count"},
	{"nfsclient.write_rpcs_per_op", "count"},

	{"proxy.client.busy_s", "s"},      // ClientConfig.Meter: handler time minus upstream waits (see README limits)
	{"proxy.client.rpc_p50_ms", "ms"}, // client-hop RPC latency
	{"proxy.client.readahead_issued_per_op", "count"},
	{"proxy.client.readahead_dropped_per_op", "count"},
	{"proxy.client.inflight_dedup_per_op", "count"},
	{"proxy.client.flush_peak", "count"},
	{"proxy.client.flushed_blocks_per_op", "count"},
	{"proxy.client.flush_s", "s"},    // time inside FlushAll during the timed phase
	{"proxy.forward_ratio", "ratio"}, // server-hop RPCs / client-hop RPCs

	{"cache.block_hit_ratio", "ratio"},
	{"cache.readahead_hit_ratio", "ratio"}, // block hits that readahead brought in / block hits
	{"cache.attr_hit_ratio", "ratio"},
	{"cache.access_hit_ratio", "ratio"},
	{"cache.lock_wait_us_per_op", "us"},
	{"cache.cancelled_bytes_per_op", "B"},
	{"cache.flushed_bytes_per_op", "B"},
	{"cache.get_block_us", "us"}, // isolated, 32 KiB
	{"cache.put_block_us", "us"}, // isolated, 32 KiB

	{"securechan.client_busy_s", "s"},
	{"securechan.server_busy_s", "s"},
	{"securechan.records_out_per_op", "count"},  // frames client to server
	{"securechan.bytes_per_record", "B"},        // plaintext bytes out / records out
	{"securechan.wire_overhead_ratio", "ratio"}, // encrypted-hop bytes / client-hop RPC bytes
	{"securechan.seal_open_MBps", "MB/s"},       // isolated, at the recorded frame sizes
	{"securechan.record_us", "us"},              // isolated
	{"securechan.allocs_per_record", "count"},   // isolated

	{"xdr.codec_ns_per_msg", "ns"}, // isolated: one encode + one decode of one message of the recorded mix
	{"xdr.codec_MBps", "MB/s"},
	{"xdr.allocs_per_msg", "count"},
	{"xdr.est_s", "s"}, // codec unit cost x messages x the hops each crosses

	{"oncrpc.call_us", "us"}, // isolated: Client.Call against an echo Server over loopback, recorded sizes
	{"oncrpc.allocs_per_call", "count"},
	{"oncrpc.MBps", "MB/s"},

	{"proxy.server.busy_s", "s"},
	{"proxy.server.inflight_max", "count"}, // peak concurrently outstanding server-hop RPCs
	{"acl.cache_hit_ratio", "ratio"},
	{"acl.check_us", "us"}, // isolated: acl.Cache.Get + ACL.Check

	{"nfs3.busy_s", "s"}, // server-hop time not inside a vfs call
	{"nfs3.rpc_p50_ms", "ms"},
	{"nfs3.rpcs_per_op", "count"},

	{"vfs.busy_s", "s"},
	{"vfs.calls_per_op", "count"},
	{"vfs.write_us_p50", "us"},

	{"link.wire_bytes_per_op", "B"}, // encrypted-hop bytes, both directions
	{"link.idle_s", "s"},            // client-hop time no metered layer claims: propagation, loopback, scheduling

	{"proc.cpu_ms_per_op", "ms"}, // process user+system CPU over the traced timed phase / operations
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_KiB_per_op", "KiB"},
	{"proc.gc_cycles_per_op", "count"},
	{"proc.gc_pause_us_per_op", "us"},

	{"trace.wall_s", "s"},              // the traced timed phase
	{"trace.ops_per_s", "1/s"},         // untraced ops_per_s / this = tracing overhead
	{"trace.accounted_ratio", "ratio"}, // sum of the eight layer times / trace.wall_s
	{"trace.unanswered_calls", "count"},
}

// rpcMix is the recorded client-hop message mix one procedure at a
// time; the isolated replays draw their messages from it.
type rpcMix struct {
	proc    uint32
	count   int
	out, in int // mean call and reply record bytes
}

func clientMix(clientSpans []span) []rpcMix {
	var count, out, in [32]int
	for _, s := range clientSpans {
		if s.name < 32 {
			count[s.name]++
			out[s.name] += int(s.out)
			in[s.name] += int(s.in)
		}
	}
	var mix []rpcMix
	for proc, n := range count {
		if n > 0 {
			mix = append(mix, rpcMix{proc: uint32(proc), count: n, out: out[proc] / n, in: in[proc] / n})
		}
	}
	return mix
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func spanP50(spans []span, only int) float64 {
	var d []float64
	for _, s := range spans {
		if only < 0 || int(s.name) == only {
			d = append(d, float64(s.end-s.start))
		}
	}
	sort.Float64s(d)
	return percentile(d, 0.5)
}

// layerMetrics turns the traced run's spans and counter differences
// into the per-layer metrics, in perLayer order.
func layerMetrics(tr *tracer, ph *phase, before, after *counters, iso isolated) []metric {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	spans := tr.snapshot()
	opU := union(intervalsOf(spans[layerOp]))
	clientU := union(intervalsOf(spans[layerClient]))
	serverIv := intervalsOf(spans[layerServer])
	serverU := union(serverIv)
	vfsU := union(intervalsOf(spans[layerVFS]))

	busy := func(i int) float64 {
		d := after.busy[i] - before.busy[i]
		if d < 0 {
			// The client proxy credits upstream waits of background
			// readahead and flush RPCs against a Meter that never saw
			// their handler time.
			d = 0
		}
		return d.Seconds()
	}
	proxyClient, proxyServer, chanClient, chanServer := busy(0), busy(1), busy(2), busy(3)
	nfsclientSelf := sec(uncovered(opU, clientU))
	vfsBusy := sec(total(vfsU))
	nfs3Busy := sec(uncovered(serverU, vfsU))
	linkIdle := sec(total(clientU)) - proxyClient - proxyServer - chanClient - chanServer - sec(total(serverU))
	if linkIdle < 0 {
		linkIdle = 0 // concurrent handlers: the meters sum, the span unions do not
	}
	wall := ph.elapsed.Seconds()
	accounted := nfsclientSelf + proxyClient + chanClient + chanServer + linkIdle + proxyServer + nfs3Busy + vfsBusy

	var clientRPCs, clientBytes float64
	var clientRPC []span // without the FlushAll pseudo-spans
	for _, s := range spans[layerClient] {
		if s.name != flushAllSpan {
			clientRPC = append(clientRPC, s)
			clientRPCs++
			clientBytes += float64(s.out) + float64(s.in)
		}
	}
	serverRPCs := float64(len(spans[layerServer]))
	d := func(after, before uint64) float64 { return float64(after - before) } // a counter's growth over the timed phase
	hit := func(hits, misses float64) float64 { return ratio(hits, hits+misses) }
	blockHits := d(after.dc.BlockHits, before.dc.BlockHits)
	wanBytes := float64(tr.wan.outBytes + tr.wan.inBytes)
	ops := float64(ph.ops)
	// Counts are reported per operation: the run is bounded by time, so
	// a total would grow with the speed it is meant to explain.
	perOp := func(x float64) float64 { return x / ops }

	v := map[string]float64{
		"nfsclient.self_s":            nfsclientSelf,
		"nfsclient.rpcs_per_op":       clientRPCs / ops,
		"nfsclient.page_hit_ratio":    hit(d(after.pageHits, before.pageHits), d(after.pageMisses, before.pageMisses)),
		"nfsclient.read_rpcs_per_op":  perOp(d(after.readRPCs, before.readRPCs)),
		"nfsclient.write_rpcs_per_op": perOp(d(after.writeRPCs, before.writeRPCs)),

		"proxy.client.busy_s":                   proxyClient,
		"proxy.client.rpc_p50_ms":               spanP50(clientRPC, -1) / 1e6,
		"proxy.client.readahead_issued_per_op":  perOp(d(after.dp.ReadaheadIssued, before.dp.ReadaheadIssued)),
		"proxy.client.readahead_dropped_per_op": perOp(d(after.dp.ReadaheadDropped, before.dp.ReadaheadDropped)),
		"proxy.client.inflight_dedup_per_op":    perOp(d(after.dp.InflightDedup, before.dp.InflightDedup)),
		"proxy.client.flush_peak":               float64(after.dp.FlushPeak),
		"proxy.client.flushed_blocks_per_op":    perOp(d(after.dp.FlushedBlocks, before.dp.FlushedBlocks)),
		"proxy.client.flush_s":                  ph.flush.Seconds(),
		"proxy.forward_ratio":                   ratio(serverRPCs, clientRPCs),

		"cache.block_hit_ratio":        hit(blockHits, d(after.dc.BlockMisses, before.dc.BlockMisses)),
		"cache.readahead_hit_ratio":    ratio(d(after.dc.ReadaheadHits, before.dc.ReadaheadHits), blockHits),
		"cache.attr_hit_ratio":         hit(d(after.dc.AttrHits, before.dc.AttrHits), d(after.dc.AttrMisses, before.dc.AttrMisses)),
		"cache.access_hit_ratio":       hit(d(after.dc.AccessHits, before.dc.AccessHits), d(after.dc.AccessMisses, before.dc.AccessMisses)),
		"cache.lock_wait_us_per_op":    perOp(d(after.dc.LockWaitNanos, before.dc.LockWaitNanos) / 1e3),
		"cache.cancelled_bytes_per_op": perOp(d(after.dc.CancelledBytes, before.dc.CancelledBytes)),
		"cache.flushed_bytes_per_op":   perOp(d(after.dc.FlushedBytes, before.dc.FlushedBytes)),
		"cache.get_block_us":           iso.cacheGetUs,
		"cache.put_block_us":           iso.cachePutUs,

		"securechan.client_busy_s":       chanClient,
		"securechan.server_busy_s":       chanServer,
		"securechan.records_out_per_op":  perOp(float64(tr.wan.outFrames)),
		"securechan.bytes_per_record":    ratio(d(after.chanOut, before.chanOut), float64(tr.wan.outFrames)),
		"securechan.wire_overhead_ratio": ratio(wanBytes, clientBytes),
		"securechan.seal_open_MBps":      iso.chanMBps,
		"securechan.record_us":           iso.chanRecordUs,
		"securechan.allocs_per_record":   iso.chanAllocs,

		"xdr.codec_ns_per_msg": iso.xdrNsPerMsg,
		"xdr.codec_MBps":       iso.xdrMBps,
		"xdr.allocs_per_msg":   iso.xdrAllocs,
		// A message is encoded and decoded once per hop it crosses; the
		// encrypted hop carries what the server hop does, give or take
		// the server proxy's own ACL reads.
		"xdr.est_s": iso.xdrNsPerMsg * 2 * (clientRPCs + 2*serverRPCs) / 1e9,

		"oncrpc.call_us":         iso.rpcCallUs,
		"oncrpc.allocs_per_call": iso.rpcAllocs,
		"oncrpc.MBps":            iso.rpcMBps,

		"proxy.server.busy_s":       proxyServer,
		"proxy.server.inflight_max": float64(maxOverlap(serverIv)),
		"acl.cache_hit_ratio":       hit(d(after.aclHits, before.aclHits), d(after.aclMisses, before.aclMisses)),
		"acl.check_us":              iso.aclCheckUs,

		"nfs3.busy_s":      nfs3Busy,
		"nfs3.rpc_p50_ms":  spanP50(spans[layerServer], -1) / 1e6,
		"nfs3.rpcs_per_op": perOp(serverRPCs),

		"vfs.busy_s":       vfsBusy,
		"vfs.calls_per_op": perOp(float64(len(spans[layerVFS]))),
		"vfs.write_us_p50": spanP50(spans[layerVFS], vfsWrite) / 1e3,

		"link.wire_bytes_per_op": perOp(wanBytes),
		"link.idle_s":            linkIdle,

		"proc.cpu_ms_per_op":      ph.cpu.Seconds() * 1e3 / ops,
		"proc.allocs_per_op":      float64(after.mem.Mallocs-before.mem.Mallocs) / ops,
		"proc.alloc_KiB_per_op":   float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / ops,
		"proc.gc_cycles_per_op":   perOp(float64(after.mem.NumGC - before.mem.NumGC)),
		"proc.gc_pause_us_per_op": perOp(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e3),

		"trace.wall_s":           wall,
		"trace.ops_per_s":        ph.rate,
		"trace.accounted_ratio":  accounted / wall,
		"trace.unanswered_calls": float64(tr.unanswered.Load()),
	}
	if len(v) != len(perLayer) {
		panic("benchmark: perLayer and layerMetrics disagree on the metric list")
	}
	out := make([]metric, len(perLayer))
	for i, d := range perLayer {
		value, ok := v[d.name]
		if !ok {
			panic("benchmark: layerMetrics computes no " + d.name)
		}
		out[i] = metric{d.name, value, d.unit}
	}
	return out
}
