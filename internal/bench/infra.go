package bench

import (
	"fmt"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/metrics"
	"arbd/internal/mq"
	"arbd/internal/offload"
	"arbd/internal/sim"
	"arbd/internal/stream"
)

// E1LogIngest measures broker produce/consume throughput across producer and
// partition counts (§1 "velocity": data streaming in at high speed).
func E1LogIngest() *metrics.Table {
	return e1LogIngest(100_000, []int{1, 4}, []int{1, 4, 8})
}

func e1LogIngestSmoke() *metrics.Table {
	return e1LogIngest(5_000, []int{2}, []int{1, 4})
}

func e1LogIngest(total int, producerCounts, partitionCounts []int) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E1: commit-log ingest (%dk records, 100B values)", total/1000),
		"producers", "partitions", "produce k/s", "consume k/s")
	value := make([]byte, 100)
	for _, producers := range producerCounts {
		for _, partitions := range partitionCounts {
			b := mq.NewBroker()
			if err := b.CreateTopic("t", mq.TopicConfig{Partitions: partitions}); err != nil {
				panic(err)
			}
			start := time.Now()
			done := make(chan struct{}, producers)
			per := total / producers
			for p := 0; p < producers; p++ {
				go func(p int) {
					key := []byte(fmt.Sprintf("p%d", p))
					for i := 0; i < per; i++ {
						key[0] = byte('a' + i%23)
						if _, _, err := b.Produce("t", key, value); err != nil {
							panic(err)
						}
					}
					done <- struct{}{}
				}(p)
			}
			for p := 0; p < producers; p++ {
				<-done
			}
			produceRate := float64(producers*per) / time.Since(start).Seconds() / 1e3

			g, err := b.NewGroup("t")
			if err != nil {
				panic(err)
			}
			start = time.Now()
			consumed := 0
			for {
				recs, err := g.Poll(4096)
				if err != nil {
					panic(err)
				}
				if len(recs) == 0 {
					break
				}
				consumed += len(recs)
				for _, r := range recs {
					g.Commit(r.Partition, r.Offset+1)
				}
			}
			consumeRate := float64(consumed) / time.Since(start).Seconds() / 1e3
			t.AddRow(producers, partitions, fmt.Sprintf("%.0f", produceRate), fmt.Sprintf("%.0f", consumeRate))
		}
	}
	return t
}

// E2StreamWindows measures windowed-aggregation throughput as worker
// parallelism grows (§2: the analysis pipeline must keep up with streams).
func E2StreamWindows() *metrics.Table {
	return e2StreamWindows(200_000, []int{1, 2, 4, 8})
}

func e2StreamWindowsSmoke() *metrics.Table {
	return e2StreamWindows(10_000, []int{1, 4})
}

func e2StreamWindows(total int, parallelisms []int) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E2: stream engine, keyed 1s tumbling sum over %dk events", total/1000),
		"parallelism", "events/s (k)", "results")
	for _, par := range parallelisms {
		p := stream.NewPipeline("bench", stream.WithChannelSize(1024))
		results := 0
		var resMu chan struct{} = make(chan struct{}, 1)
		resMu <- struct{}{}
		p.Source("in").
			Window("sum", par, stream.Tumbling(time.Second), stream.Sum()).
			Sink("out", func(stream.Event) {
				<-resMu
				results++
				resMu <- struct{}{}
			})
		if err := p.Start(); err != nil {
			panic(err)
		}
		start := time.Now()
		base := sim.Epoch
		for i := 0; i < total; i++ {
			evt := stream.Event{
				Key:   fmt.Sprintf("k%d", i%64),
				Time:  base.Add(time.Duration(i) * 50 * time.Microsecond),
				Value: 1,
			}
			if err := p.Push("in", evt); err != nil {
				panic(err)
			}
		}
		if err := p.Drain(); err != nil {
			panic(err)
		}
		rate := float64(total) / time.Since(start).Seconds() / 1e3
		t.AddRow(par, fmt.Sprintf("%.0f", rate), results)
	}
	return t
}

// E3IncrementalVsBatch compares per-update cost of an incrementally
// maintained view against full recomputation at growing log sizes — §4.1's
// timeliness argument made quantitative.
func E3IncrementalVsBatch() *metrics.Table {
	return e3IncrementalVsBatch([]int{1_000, 10_000, 100_000, 500_000})
}

func e3IncrementalVsBatchSmoke() *metrics.Table {
	return e3IncrementalVsBatch([]int{1_000, 10_000})
}

func e3IncrementalVsBatch(logSizes []int) *metrics.Table {
	t := metrics.NewTable("E3: per-update cost, incremental view vs batch recompute",
		"log size", "incremental/update", "batch/update", "batch/incremental")
	rng := sim.NewRand(3)
	for _, n := range logSizes {
		rows := make([]analytics.Row, n)
		for i := range rows {
			rows[i] = analytics.Row{Group: fmt.Sprintf("g%d", rng.Intn(200)), Value: rng.Float64()}
		}
		v := analytics.NewView()
		v.ApplyBatch(rows)

		const updates = 50
		start := time.Now()
		for i := 0; i < updates; i++ {
			v.Apply(analytics.Row{Group: "g1", Value: 1})
		}
		incPer := time.Since(start) / updates

		batchRuns := 3
		start = time.Now()
		for i := 0; i < batchRuns; i++ {
			_ = analytics.BatchCompute(rows)
		}
		batchPer := time.Since(start) / time.Duration(batchRuns)

		ratio := float64(batchPer) / float64(incPer+1)
		t.AddRow(n, us(incPer), ms(batchPer), fmt.Sprintf("%.0fx", ratio))
	}
	return t
}

// E4Offload reproduces the CloudRiDAR-style crossover: per-frame latency and
// device energy for local/edge/cloud placements across network profiles
// (§4.1).
func E4Offload() *metrics.Table {
	t := metrics.NewTable("E4: AR pipeline placement per network profile (per frame)",
		"network", "placement", "latency", "energy mJ", "chosen")
	device := offload.Node{ID: "mobile", SpeedFactor: 1, ActiveWatts: 2.5, IdleWatts: 0.8, TxWatts: 1.8}
	edge := offload.Node{ID: "edge", SpeedFactor: 6, ActiveWatts: 65, IdleWatts: 20, TxWatts: 5}
	cloud := offload.Node{ID: "cloud", SpeedFactor: 32, ActiveWatts: 250, IdleWatts: 80, TxWatts: 10}
	stages := offload.ARPipeline(0, 0)

	profiles := []offload.Profile{offload.ProfileLAN, offload.ProfileWiFi, offload.ProfileLTE, offload.Profile3G}
	for _, link := range profiles {
		wan := link
		wan.RTT += 40 * time.Millisecond
		remotes := []offload.RemoteOption{
			{Node: edge, Link: link},
			{Node: cloud, Link: wan},
		}
		best := offload.Best(stages, device, remotes)
		candidates := []struct {
			name string
			est  func() (offload.Estimate, error)
		}{
			{"local", func() (offload.Estimate, error) {
				return offload.Evaluate(stages, device, device, offload.ProfileLoopback, offload.Local())
			}},
			{"edge[1:4]", func() (offload.Estimate, error) {
				return offload.Evaluate(stages, device, edge, link,
					offload.Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "edge"})
			}},
			{"cloud[1:4]", func() (offload.Estimate, error) {
				return offload.Evaluate(stages, device, cloud, wan,
					offload.Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "cloud"})
			}},
		}
		shown := false
		for _, c := range candidates {
			est, err := c.est()
			if err != nil {
				panic(err)
			}
			chosen := ""
			if c.name == best.Placement.String() || (c.name == "local" && best.Placement.IsLocal()) {
				chosen = "<-- best"
				shown = true
			}
			t.AddRow(link.Name, c.name, ms(est.Latency),
				fmt.Sprintf("%.1f", est.DeviceEnergyJ*1e3), chosen)
		}
		// The planner may pick a split not in the display set (e.g. on WiFi
		// it extracts features locally and ships only descriptors); always
		// show its actual decision.
		if !shown {
			t.AddRow(link.Name, best.Placement.String(), ms(best.Estimate.Latency),
				fmt.Sprintf("%.1f", best.Estimate.DeviceEnergyJ*1e3), "<-- best")
		}
	}
	return t
}
