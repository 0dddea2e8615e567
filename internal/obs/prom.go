package obs

import (
	"io"
	"strconv"
	"sync"
	"time"

	"arbd/internal/metrics"
)

// promPrefix namespaces every exported metric.
const promPrefix = "arbd_"

// appendPromName appends the Prometheus metric name of a registry name to
// dst: every character outside [a-zA-Z0-9_] becomes '_', and the arbd_
// namespace is prepended ("server.frame.queue_wait" →
// "arbd_server_frame_queue_wait").
func appendPromName(dst []byte, name string) []byte {
	dst = append(dst, promPrefix...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		// Digits are fine anywhere here: the prefix guarantees the metric
		// name never starts with one.
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
			dst = append(dst, c)
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}

// appendSeconds appends a duration as a float64 second count.
func appendSeconds(dst []byte, d time.Duration) []byte {
	return strconv.AppendFloat(dst, d.Seconds(), 'g', -1, 64)
}

// promScratch is one scrape's registry snapshot and output buffer, plus the
// sanitized name of the instrument being written. Scrapes reuse them
// through promBuffers, so a steady-state scrape allocates nothing.
type promScratch struct {
	snap      []metrics.Instrument
	out, name []byte
}

var promBuffers = sync.Pool{New: func() any { return new(promScratch) }}

// WritePrometheus renders every instrument in reg in Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as summaries with 0.5/0.95/0.99 quantile labels plus
// _sum and _count series. Histogram values are durations and export in
// seconds with a _seconds name suffix. Instruments come from the typed
// registry snapshot (Registry.SnapshotInto) — nothing here parses Dump
// output.
func WritePrometheus(w io.Writer, reg *metrics.Registry) error {
	sc := promBuffers.Get().(*promScratch)
	defer promBuffers.Put(sc)
	sc.snap = reg.SnapshotInto(sc.snap)
	b := sc.out[:0]
	for i := range sc.snap {
		in := &sc.snap[i]
		// Each name is sanitized once and copied into every line it heads.
		sc.name = appendPromName(sc.name[:0], in.Name)
		if in.Kind == metrics.KindHistogram {
			sc.name = append(sc.name, "_seconds"...)
		}
		name := sc.name
		switch in.Kind {
		case metrics.KindCounter:
			b = promHeader(b, name, "Counter ", in.Name, "counter")
			b = strconv.AppendInt(promSample(b, name, " "), in.Counter, 10)
			b = append(b, '\n')
		case metrics.KindGauge:
			b = promHeader(b, name, "Gauge ", in.Name, "gauge")
			b = strconv.AppendFloat(promSample(b, name, " "), in.Gauge, 'g', -1, 64)
			b = append(b, '\n')
		case metrics.KindHistogram:
			s := &in.Hist
			b = promHeader(b, name, "Latency summary ", in.Name, "summary")
			b = append(appendSeconds(promSample(b, name, `{quantile="0.5"} `), s.P50), '\n')
			b = append(appendSeconds(promSample(b, name, `{quantile="0.95"} `), s.P95), '\n')
			b = append(appendSeconds(promSample(b, name, `{quantile="0.99"} `), s.P99), '\n')
			b = append(appendSeconds(promSample(b, name, "_sum "), s.Sum), '\n')
			b = strconv.AppendUint(promSample(b, name, "_count "), s.Count, 10)
			b = append(b, '\n')
		}
	}
	sc.out = b
	_, err := w.Write(b)
	return err
}

// promHeader appends an instrument's HELP and TYPE lines.
func promHeader(b, name []byte, help, registryName, kind string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, registryName...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, kind...)
	return append(b, '\n')
}

// promSample appends the start of a sample line: the name, then suffix
// (labels and the separating space).
func promSample(b, name []byte, suffix string) []byte {
	return append(append(b, name...), suffix...)
}
