package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"runtime"
	"strconv"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/arml"
	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/mq"
	"arbd/internal/render"
	"arbd/internal/sensor"
	"arbd/internal/server"
	"arbd/internal/stream"
	"arbd/internal/wire"
)

// perLayer lists every per-layer metric, in the order of README's
// layer → end-to-end table. A traced run reports all of them on every
// workload; README says on which workload each one carries weight.
var perLayer = []metricDef{
	{"tracking.fuse_us_per_event", "us", "lower"},
	{"geo.query_us_per_frame", "us", "lower"},
	{"geo.pois_per_query", "count", "lower"},
	{"geo.pois_used_share", "share", "higher"},
	{"analytics.lookup_us_per_frame", "us", "lower"},
	{"analytics.key_hit_share", "share", "higher"},
	{"arml.interpret_us_per_frame", "us", "lower"},
	{"analytics.view_apply_us_per_row", "us", "lower"},
	{"analytics.sketch_add_us_per_key", "us", "lower"},
	{"stream.push_us_per_event", "us", "lower"},
	{"mq.produce_us_per_record", "us", "lower"},
	{"mq.consume_us_per_record", "us", "lower"},
	{"mq.allocs_per_record", "count", "lower"},
	{"mq.stranded_records", "count", "lower"},
	{"mq.backlog_p95_records", "count", "lower"},
	{"core.telemetry_enqueue_us_per_record", "us", "lower"},
	{"render.layout_us_per_frame", "us", "lower"},
	{"render.annotations_in_per_frame", "count", "lower"},
	{"render.placed_share", "share", "higher"},
	{"core.frame_us_p50", "us", "lower"},
	{"core.frame_self_us", "us", "lower"},
	{"core.frame_us_in_server", "us", "lower"},
	{"core.allocs_per_frame", "count", "lower"},
	{"core.encode_full_us_per_frame", "us", "lower"},
	{"core.encode_delta_us_per_frame", "us", "lower"},
	{"core.delta_bytes_share", "share", "lower"},
	{"core.keyframe_share", "share", "lower"},
	{"core.snapshot_encode_us", "us", "lower"},
	{"core.snapshot_restore_us", "us", "lower"},
	{"wire.encode_us_per_envelope", "us", "lower"},
	{"wire.decode_us_per_envelope", "us", "lower"},
	{"wire.overhead_bytes_per_envelope", "B", "lower"},
	{"server.sched_overhead_us_per_frame", "us", "lower"},
	{"server.conn_overhead_us_per_frame", "us", "lower"},
	{"server.push_overhead_us_per_frame", "us", "lower"},
	{"server.router_hop_us", "us", "lower"},
	{"server.ingest_overhead_us_per_event", "us", "lower"},
	{"server.migrate_ms_per_session", "ms", "lower"},
	{"server.frames_shed", "count", "lower"},
	{"server.pushes_dropped", "count", "lower"},
	{"server.pacers", "count", "lower"},
	{"server.flush_latency_p99_us", "us", "lower"},
	{"obs.frames_dropped", "count", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"client.decode_full_us_per_frame", "us", "lower"},
	{"client.apply_delta_us_per_frame", "us", "lower"},
	{"client.rtt_p50_ms", "ms", "lower"},
	{"client.rtt_p99_ms", "ms", "lower"},
	{"client.gap_p99_ms", "ms", "lower"},
	{"client.jitter_p99_ms", "ms", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.cpu_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.frame_accounted_share", "share", "higher"},
	{"trace.geo_render_analytics_cpu_share", "share", "higher"},
	{"failed_share", "share", "lower"},
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// Replay sizes: enough work per probe for a steady mean, small enough that
// the whole traced replay stays within a few seconds.
const (
	replaySessions = 16
	replayFrames   = 1500 // across all replayed sessions
	probeOps       = 40000
	probeBatch     = 256 // operations per span where one operation is sub-microsecond
	rttProbes      = 600
	migrateStreams = 64
	queryRadiusM   = 250 // core.Config's default annotation radius
	workingSetCap  = 60  // Session.Frame keeps 3 × MaxAnnotations POIs
	seededHitShare = 0.3 // share of POIs given a crowd-view row
)

var quiet = log.New(io.Discard, "", 0)

func newPlatform(w world) (*core.Platform, error) {
	return core.NewPlatform(core.Config{Seed: worldSeed, City: w.cityConfig()})
}

// layerRun carries one traced replay.
type layerRun struct {
	w     *workload
	sc    *script
	steps int // script steps per session the multi-process run consumed
	tr    *tracer
	out   map[string]float64
}

// runLayers replays the workload's script in-process with a span around
// each layer's public calls, runs the per-layer probes on the same inputs,
// and adds every traced metric to res.Layer. The spans are written to
// outDir/trace-<workload>.json.
func runLayers(w *workload, sc *script, res *result, outDir string) error {
	lr := &layerRun{w: w, sc: sc, steps: res.steps, tr: newTracer(), out: res.Layer}
	untraced, err := lr.replayFrames(false)
	if err != nil {
		return err
	}
	traced, err := lr.replayFrames(true)
	if err != nil {
		return err
	}
	lr.out["trace.overhead_share"] = traced/untraced - 1
	lr.probeIngest()
	lr.probeWire()
	if err := lr.probeServing(); err != nil {
		return err
	}
	lr.derive(res)
	_, err = writeTrace(outDir, &traceFile{Workload: w.Name, Seed: sc.Seed, Spans: lr.tr.spans})
	return err
}

// spanUS is the median duration, in microseconds, of the spans of one name.
func spanUS(totals map[string]*spanTotal, name string) float64 {
	if t := totals[name]; t != nil {
		return median(t.DurUS)
	}
	return 0
}

// replayFrames feeds the script's first sessions to an in-process platform
// step by step and renders one frame per step. Traced, it records spans for
// tracking, the frame, the frame's four children (re-run from the frame's
// own inputs through the layers' public functions) and the frame codecs, and
// fills the per-frame metrics. Untraced, it only times Session.Frame. It
// returns the median Session.Frame time in microseconds.
func (lr *layerRun) replayFrames(traced bool) (float64, error) {
	p, err := newPlatform(lr.w.World)
	if err != nil {
		return 0, err
	}
	if err := p.Start(); err != nil {
		return 0, err
	}
	defer func() { _ = p.Stop() }()

	// The crowd view stays empty inside a short run (one-minute windows),
	// so seed it: a fixed share of POIs gets a row, and a few interactions
	// go through the real pipeline so the hot-POI sketch is not empty.
	seedN := int(math.Round(seededHitShare * 10))
	for id := 1; id <= lr.w.World.POIs; id++ {
		if id%10 < seedN {
			p.CrowdView().Apply(analytics.Row{Group: "poi-" + strconv.Itoa(id), Value: float64(1 + id%7)})
		}
	}
	n := min(replaySessions, len(lr.sc.Sessions))
	sessions := make([]*core.Session, n)
	for i := range sessions {
		sessions[i] = p.SessionOrNew(lr.sc.Sessions[i].ID)
		for k := 0; k < 8; k++ {
			_ = sessions[i].RecordInteraction(lr.sc.Targets[(i*8+k)%len(lr.sc.Targets)], 0.3)
		}
	}
	if err := p.WaitAnalyticsIdle(2 * time.Second); err != nil {
		return 0, err
	}

	tr := lr.tr
	occl := render.OccludersFromPOIs(p.POIs().All(), 30)
	interp := arml.RetailVocabulary()
	var (
		pois     []geo.POI
		anns     []render.Annotation
		laid     []render.Annotation
		scratch  render.LayoutScratch
		hot      []analytics.HeavyHitter
		key      []byte
		found    []analytics.GroupStats
		metrics  = make(map[string]float64, 2)
		full     wire.Buffer
		delta    wire.Buffer
		prev     = make([]*core.DecodedFrame, n)
		frameUS  []float64
		returned int
		kept     int
		lookups  int
		hits     int
		annsIn   int
		placed   int
		fullB    int
		deltaB   int
		deltas   int
	)
	// Frames are rendered at evenly spaced steps across the stretch of the
	// script the multi-process run walked (what a frame costs depends on
	// where the walker is); the steps between are fed to tracking untimed.
	rounds := replayFrames / n
	stride := max(1, lr.steps/rounds)
	var m0 runtime.MemStats
	if !traced {
		runtime.ReadMemStats(&m0)
	}
	for k := 0; k < rounds*stride; k++ {
		for i, sess := range sessions {
			st, ts := lr.sc.Sessions[i].at(k), stepTime(k)
			if k%stride != 0 {
				if k%gpsEverySteps == 0 {
					_ = sess.OnGPS(sensor.GPSFix{Time: ts, Position: geoPoint(st.Lat, st.Lon), AccuracyM: 5})
				}
				sess.OnIMU(sensor.IMUSample{Time: ts, GyroZRad: st.Gyro, AccelMps2: st.Accel, CompassDeg: st.Compass})
				continue
			}
			req := uint64(i)<<32 | uint64(k)
			imu := sensor.IMUSample{Time: ts, GyroZRad: st.Gyro, AccelMps2: st.Accel, CompassDeg: st.Compass}
			fix := sensor.GPSFix{Time: ts, Position: geoPoint(st.Lat, st.Lon), AccuracyM: 5}
			if !traced {
				if k%gpsEverySteps == 0 {
					_ = sess.OnGPS(fix)
				}
				sess.OnIMU(imu)
				t0 := time.Now()
				if _, err := sess.Frame(ts); err != nil {
					return 0, err
				}
				frameUS = append(frameUS, float64(time.Since(t0))/1e3)
				continue
			}

			if k%gpsEverySteps == 0 {
				tr.time("tracking.fuse", 0, req, func() { _ = sess.OnGPS(fix) })
			}
			tr.time("tracking.fuse", 0, req, func() { sess.OnIMU(imu) })

			start := tr.now()
			f, err := sess.Frame(ts)
			end := tr.now()
			if err != nil {
				return 0, err
			}
			frame := tr.add("core.frame", 0, req, start, end, false)

			frameUS = append(frameUS, float64(end-start)/1e3)

			// Codecs first: f aliases the session's scratch.
			tr.time("core.encode_full", 0, req, func() { full.Reset(); core.EncodeFrameInto(&full, f) })
			tr.time("core.encode_delta", 0, req, func() { delta.Reset(); core.EncodeFrameDeltaInto(&delta, f, false) })
			var dec *core.DecodedFrame
			tr.time("client.decode_full", 0, req, func() { dec, err = core.DecodeFrame(full.Bytes()) })
			if err != nil {
				return 0, fmt.Errorf("replay: frame does not decode: %w", err)
			}
			if prev[i] != nil && !core.FrameDeltaIsKeyframe(delta.Bytes()) {
				var applied *core.DecodedFrame
				tr.time("client.apply_delta", 0, req, func() { applied, err = core.ApplyFrameDelta(prev[i], delta.Bytes()) })
				if err != nil || len(applied.Annotations) != len(dec.Annotations) {
					return 0, fmt.Errorf("replay: delta does not apply: %v", err)
				}
				deltas++
				deltaB += delta.Len()
				fullB += full.Len()
			}
			prev[i] = dec

			// The frame's children, re-run on the frame's inputs and laid
			// end to end inside the frame span (see span.Replayed).
			pose := f.Pose
			at := start
			child := func(name string, fn func()) {
				t0 := time.Now()
				fn()
				d := int64(time.Since(t0))
				tr.add(name, frame, req, at, at+d, true)
				at += d
			}
			child("geo.query", func() {
				pois = p.POIs().QueryRadiusInto(pois[:0], pose.Position, queryRadiusM, 0)
			})
			returned += len(pois)
			work := pois[:min(len(pois), workingSetCap)]
			kept += len(work)
			child("analytics.lookup", func() {
				hot = p.HotPOIsInto(hot[:0], 1)
				found = found[:0]
				for j := range work {
					key = strconv.AppendUint(append(key[:0], "poi-"...), work[j].ID, 10)
					if gs, ok := p.CrowdView().GetKey(key); ok {
						found = append(found, gs)
					}
				}
			})
			lookups += len(work)
			hits += len(found)
			child("arml.interpret", func() {
				for _, gs := range found {
					clear(metrics)
					metrics["visits"] = gs.Sum
					if len(hot) > 0 && hot[0].Count > 0 {
						metrics["crowding"] = gs.Sum / float64(hot[0].Count)
					}
					_ = interp.Interpret(metrics)
				}
			})
			child("render.layout", func() {
				anns = render.AnnotationsFromPOIsInto(anns[:0], pose, work)
				laid = render.LayoutAnchoredInto(laid[:0], &scratch, render.DefaultCamera, pose, anns, occl, render.LayoutOptions{})
			})
			annsIn += len(anns)
			placed += len(laid)
		}
	}
	frames := rounds * n
	p50 := median(frameUS)
	if !traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		lr.out["core.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(frames)
		return p50, nil
	}

	totals := totalsByName(tr.spans)
	o := lr.out
	o["tracking.fuse_us_per_event"] = spanUS(totals, "tracking.fuse")
	o["geo.query_us_per_frame"] = spanUS(totals, "geo.query")
	o["geo.pois_per_query"] = float64(returned) / float64(frames)
	o["geo.pois_used_share"] = float64(kept) / float64(max(returned, 1))
	o["analytics.lookup_us_per_frame"] = spanUS(totals, "analytics.lookup")
	o["analytics.key_hit_share"] = float64(hits) / float64(max(lookups, 1))
	o["arml.interpret_us_per_frame"] = spanUS(totals, "arml.interpret")
	o["render.layout_us_per_frame"] = spanUS(totals, "render.layout")
	o["render.annotations_in_per_frame"] = float64(annsIn) / float64(frames)
	o["render.placed_share"] = float64(placed) / float64(max(annsIn, 1))
	o["core.frame_us_p50"] = p50
	o["core.frame_self_us"] = median(totals["core.frame"].SelfUS)
	o["core.encode_full_us_per_frame"] = spanUS(totals, "core.encode_full")
	o["core.encode_delta_us_per_frame"] = spanUS(totals, "core.encode_delta")
	o["core.delta_bytes_share"] = float64(deltaB) / float64(max(fullB, 1))
	o["client.decode_full_us_per_frame"] = spanUS(totals, "client.decode_full")
	o["client.apply_delta_us_per_frame"] = spanUS(totals, "client.apply_delta")
	children := o["geo.query_us_per_frame"] + o["analytics.lookup_us_per_frame"] +
		o["arml.interpret_us_per_frame"] + o["render.layout_us_per_frame"]
	o["trace.frame_accounted_share"] = (children + o["core.frame_self_us"]) / p50

	// Snapshots, on sessions that now carry real state. Restore needs the
	// session gone from the registry first.
	var snap wire.Buffer
	for _, sess := range sessions {
		snap.Reset()
		start := tr.now()
		sess.EncodeSnapshotInto(&snap)
		mid := tr.now()
		tr.add("core.snapshot_encode", 0, sess.ID, start, mid, false)
		p.DetachSession(sess.ID)
		start = tr.now()
		_, err := p.RestoreSession(snap.Bytes())
		end := tr.now()
		if err != nil {
			return 0, fmt.Errorf("replay: snapshot does not restore: %w", err)
		}
		tr.add("core.snapshot_restore", 0, sess.ID, start, end, false)
	}
	totals = totalsByName(tr.spans)
	o["core.snapshot_encode_us"] = spanUS(totals, "core.snapshot_encode")
	o["core.snapshot_restore_us"] = spanUS(totals, "core.snapshot_restore")
	return p50, nil
}

// batched times fn over probeOps operations in spans of probeBatch, so the
// span bookkeeping does not swamp sub-microsecond operations, and returns
// the median microseconds per operation.
func (lr *layerRun) batched(name string, fn func(i int)) float64 {
	var perOp []float64
	for base := 0; base+probeBatch <= probeOps; base += probeBatch {
		start := lr.tr.now()
		for i := base; i < base+probeBatch; i++ {
			fn(i)
		}
		end := lr.tr.now()
		lr.tr.add(name, 0, uint64(base), start, end, false)
		perOp = append(perOp, float64(end-start)/1e3/probeBatch)
	}
	return median(perOp)
}

// probeIngest times the analytics plane's stages one by one on the script's
// interaction keys: what one interaction record costs on its way from a
// session to the crowd view.
func (lr *layerRun) probeIngest() {
	o := lr.out
	keys := make([]string, len(lr.sc.Targets))
	for i, t := range lr.sc.Targets {
		keys[i] = "poi-" + strconv.FormatUint(t, 10)
	}

	sketch := analytics.NewSpaceSaving(64)
	o["analytics.sketch_add_us_per_key"] = lr.batched("analytics.sketch_add", func(i int) { sketch.Add(keys[i%len(keys)]) })
	view := analytics.NewView()
	o["analytics.view_apply_us_per_row"] = lr.batched("analytics.view_apply", func(i int) {
		view.Apply(analytics.Row{Group: keys[i%len(keys)], Value: 0.3})
	})

	// The platform's own pipeline shape: source → 1-minute tumbling sum
	// over 4 partitions → sink.
	pipe := stream.NewPipeline("probe")
	pipe.Source("interactions").
		Window("per-poi-1m", 4, stream.Tumbling(time.Minute), stream.Sum()).
		Sink("discard", func(stream.Event) {})
	if err := pipe.Start(); err == nil {
		now := time.Now()
		o["stream.push_us_per_event"] = lr.batched("stream.push", func(i int) {
			_ = pipe.Push("interactions", stream.Event{Key: keys[i%len(keys)], Time: now, Value: 0.3})
		})
		_ = pipe.Drain()
	}

	// mq at the telemetry batcher's batch size, then the consumer's poll.
	const batch = 32
	broker := mq.NewBroker()
	defer broker.Close()
	_ = broker.CreateTopic("probe", mq.TopicConfig{Partitions: 4})
	tp, _ := broker.Topic("probe")
	values := make([][]byte, batch)
	for i := range values {
		var b wire.Buffer
		b.String(keys[i%len(keys)])
		b.Uvarint(uint64(i))
		b.Float64(0.3)
		values[i] = b.Bytes()
	}
	session := []byte("session-1")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batches := probeOps / batch
	for i := 0; i < batches; i++ {
		lr.tr.time("mq.produce", 0, uint64(i), func() { _, _ = tp.ProduceBatch(session, values) })
	}
	group, _ := broker.NewGroup("probe")
	recs := make([]mq.Record, 0, 256)
	var perRec []float64
	for consumed := 0; consumed < batches*batch; consumed += len(recs) {
		start := lr.tr.now()
		recs, _ = group.PollInto(recs[:0], 256)
		for i := range recs {
			group.Commit(recs[i].Partition, recs[i].Offset+1)
		}
		end := lr.tr.now()
		if len(recs) == 0 {
			break // the rest is stranded (README, known gaps)
		}
		lr.tr.add("mq.consume", 0, uint64(consumed), start, end, false)
		perRec = append(perRec, float64(end-start)/1e3/float64(len(recs)))
	}
	runtime.ReadMemStats(&m1)
	o["mq.produce_us_per_record"] = spanUS(totalsByName(lr.tr.spans), "mq.produce") / batch
	o["mq.consume_us_per_record"] = median(perRec)
	o["mq.allocs_per_record"] = float64(m1.Mallocs-m0.Mallocs) / float64(batches*batch)

	// Session.RecordInteraction on a platform that was never started: the
	// batcher flushes inline at its batch size, so this row contains the
	// produce above; nothing consumes.
	if p, err := newPlatform(lr.w.World); err == nil {
		sessions := make([]*core.Session, 64)
		for i := range sessions {
			sessions[i] = p.SessionOrNew(uint64(1000 + i))
		}
		o["core.telemetry_enqueue_us_per_record"] = lr.batched("core.telemetry_enqueue", func(i int) {
			_ = sessions[i%len(sessions)].RecordInteraction(lr.sc.Targets[i%len(lr.sc.Targets)], 0.3)
		})
	}
}

// probeWire times the envelope codec on the script's own sensor payloads —
// the smallest messages, where per-message cost dominates.
func (lr *layerRun) probeWire() {
	var payloads [][]byte
	for i := range lr.sc.Sessions {
		s := &lr.sc.Sessions[i]
		for k := 0; k < 64 && k < len(s.Steps); k++ {
			var b wire.Buffer
			b.Byte(server.SensorIMU)
			b.Uvarint(uint64(stepTime(k).UnixNano()))
			b.Float64(s.Steps[k].Gyro)
			b.Float64(s.Steps[k].Accel)
			b.Float64(s.Steps[k].Compass)
			payloads = append(payloads, b.Bytes())
		}
		if len(payloads) >= 1024 {
			break
		}
	}
	var enc []byte
	overhead := 0
	lr.out["wire.encode_us_per_envelope"] = lr.batched("wire.encode", func(i int) {
		p := payloads[i%len(payloads)]
		enc = wire.EncodeEnvelope(enc[:0], &wire.Envelope{Type: wire.MsgSensorEvent, Seq: uint64(i),
			Session: lr.sc.Sessions[i%len(lr.sc.Sessions)].ID, Payload: p})
		overhead += 8 + len(enc) - len(p) // frame header + envelope header
	})
	lr.out["wire.overhead_bytes_per_envelope"] = float64(overhead) / float64(probeOps/probeBatch*probeBatch)
	var env wire.Envelope
	lr.out["wire.decode_us_per_envelope"] = lr.batched("wire.decode", func(int) {
		_ = wire.DecodeEnvelopeInto(&env, enc)
	})
}

// probeServing measures what the serving layers add around Session.Frame:
// the scheduler, a loopback connection, the router hop, and live migration.
func (lr *layerRun) probeServing() error {
	o := lr.out
	p, err := newPlatform(lr.w.World)
	if err != nil {
		return err
	}
	sess := p.SessionOrNew(lr.sc.Sessions[0].ID)
	fix := sensor.GPSFix{Time: stepTime(0), Position: geoPoint(lr.sc.Sessions[0].Steps[0].Lat, lr.sc.Sessions[0].Steps[0].Lon), AccuracyM: 5}
	_ = sess.OnGPS(fix)

	// Scheduler: the same session rendered directly and through the pool,
	// alternating so both see the same cache state.
	fs := server.NewFrameScheduler(server.SchedulerConfig{}, nil)
	for i := 0; i < rttProbes; i++ {
		req := uint64(i)
		t0 := lr.tr.now()
		if _, err := sess.Frame(stepTime(i)); err != nil {
			return err
		}
		t1 := lr.tr.now()
		if _, err := fs.Frame(sess); err != nil {
			return err
		}
		t2 := lr.tr.now()
		lr.tr.add("core.frame.direct", 0, req, t0, t1, false)
		lr.tr.add("server.sched.frame", 0, req, t1, t2, false)
	}
	fs.Close()
	totals := totalsByName(lr.tr.spans)
	schedUS := spanUS(totals, "server.sched.frame")
	o["server.sched_overhead_us_per_frame"] = schedUS - spanUS(totals, "core.frame.direct")

	// Connection: the public client over loopback against a standalone
	// server on the same platform.
	srv := server.New(p, quiet)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	directRTT, err := lr.clientRTT("server.conn.request", addr, fix)
	if err != nil {
		return err
	}
	o["server.conn_overhead_us_per_frame"] = directRTT - schedUS

	// Router: the same client path with a router and two shards between.
	var shards []*server.Shard
	var members []server.Member
	for id := uint64(1); id <= 2; id++ {
		sp, err := newPlatform(lr.w.World)
		if err != nil {
			return err
		}
		sh := server.NewShard(sp, quiet, server.ShardOptions{ID: id})
		a, err := sh.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer sh.Close()
		shards = append(shards, sh)
		members = append(members, server.Member{ID: id, Addr: a})
	}
	router, err := server.NewRouter(members, quiet, nil, server.RouterOptions{})
	if err != nil {
		return err
	}
	if err := router.Connect(); err != nil {
		return err
	}
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer router.Close()
	routedRTT, err := lr.clientRTT("server.router.request", raddr, fix)
	if err != nil {
		return err
	}
	o["server.router_hop_us"] = routedRTT - directRTT

	// Migration: drain shard 2 and join it back under live streams; every
	// stream's session moves at least once.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var clients []*server.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for i := 0; i < migrateStreams; i++ {
		cl, err := server.Dial(raddr)
		if err != nil {
			return err
		}
		clients = append(clients, cl)
		if err := cl.SendGPS(fix); err != nil {
			return err
		}
		ch, err := cl.Subscribe(ctx, server.SubscribeOptions{Interval: 100 * time.Millisecond})
		if err != nil {
			return err
		}
		go func() { // keep the stream drained; ends when the client closes
			for range ch {
			}
		}()
	}
	time.Sleep(150 * time.Millisecond) // every stream has pushed
	migrated := router.Metrics().Counter("router.sessions.migrated")
	before := migrated.Value()
	start := lr.tr.now()
	if _, err := router.Drain(2); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	mid := lr.tr.now()
	if _, err := router.Join(members[1]); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	end := lr.tr.now()
	lr.tr.add("server.router.drain", 0, 2, start, mid, false)
	lr.tr.add("server.router.join", 0, 2, mid, end, false)
	moves := migrated.Value() - before
	if failed := router.Metrics().Counter("router.migrations.failed").Value(); failed != 0 {
		return fmt.Errorf("%d migrations failed", failed)
	}
	o["server.migrate_ms_per_session"] = float64(end-start) / 1e6 / float64(max(moves, 1))
	return nil
}

// clientRTT dials addr with the public client and returns the median frame
// round trip in microseconds, one span per request.
func (lr *layerRun) clientRTT(name, addr string, fix sensor.GPSFix) (float64, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	if err := cl.SendGPS(fix); err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < rttProbes; i++ {
		start := lr.tr.now()
		if _, _, err := cl.RequestFrame(); err != nil {
			return 0, err
		}
		end := lr.tr.now()
		lr.tr.add(name, 0, uint64(i), start, end, false)
		us = append(us, float64(end-start)/1e3)
	}
	return median(us), nil
}

// derive fills the rows that are differences between the multi-process run
// and the traced layers: what the serving path costs beyond the layers that
// can be timed from outside.
func (lr *layerRun) derive(res *result) {
	o := lr.out
	cpuFrame := res.EndToEnd["server_cpu_us_per_frame"]
	cpuEvent := res.EndToEnd["server_cpu_us_per_event"]
	frame := o["core.frame_us_p50"]

	// What a delivered frame costs the servers beyond rendering and
	// encoding it (weighted by how many pushes were deltas).
	encode := res.deltaShare*o["core.encode_delta_us_per_frame"] + (1-res.deltaShare)*o["core.encode_full_us_per_frame"]
	o["server.push_overhead_us_per_frame"] = cpuFrame - frame - encode

	o["trace.geo_render_analytics_cpu_share"] = (o["geo.query_us_per_frame"] + o["render.layout_us_per_frame"] +
		o["analytics.lookup_us_per_frame"]) / cpuFrame

	// What a sensor event costs the servers beyond the layers it passes
	// through. Every event is decoded; IMU and GPS are fused; a gaze dwell
	// is enqueued (which contains the produce) and then consumed, counted
	// in the sketch, pushed into the stream window.
	interaction := o["core.telemetry_enqueue_us_per_record"] + o["mq.consume_us_per_record"] +
		o["analytics.sketch_add_us_per_key"] + o["stream.push_us_per_event"]
	perEvent := o["wire.decode_us_per_envelope"] + (1-res.gazeShare)*o["tracking.fuse_us_per_event"] + res.gazeShare*interaction
	o["server.ingest_overhead_us_per_event"] = cpuEvent - perEvent

	// The two budgets, each row with its share of the total it sums to.
	row := func(total float64, name string, us float64) string {
		return fmt.Sprintf("%-44s %10.3f us %6.1f%%", name, us, 100*us/total)
	}
	res.Budget = []string{
		fmt.Sprintf("frame budget: core.frame_us_p50 = %.1f us", frame),
		row(frame, "  geo.query_us_per_frame", o["geo.query_us_per_frame"]),
		row(frame, "  analytics.lookup_us_per_frame", o["analytics.lookup_us_per_frame"]),
		row(frame, "  arml.interpret_us_per_frame", o["arml.interpret_us_per_frame"]),
		row(frame, "  render.layout_us_per_frame", o["render.layout_us_per_frame"]),
		row(frame, "  core.frame_self_us", o["core.frame_self_us"]),
		fmt.Sprintf("event budget: server_cpu_us_per_event = %.3f us (%.0f%% of events are interactions)", cpuEvent, 100*res.gazeShare),
		row(cpuEvent, "  wire.decode_us_per_envelope", o["wire.decode_us_per_envelope"]),
		row(cpuEvent, "  tracking.fuse_us_per_event x other events", (1-res.gazeShare)*o["tracking.fuse_us_per_event"]),
		row(cpuEvent, "  enqueue+consume+sketch+push x interactions", res.gazeShare*interaction),
		row(cpuEvent, "  server.ingest_overhead_us_per_event", o["server.ingest_overhead_us_per_event"]),
	}
}
