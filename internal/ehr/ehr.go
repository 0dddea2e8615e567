// Package ehr implements the §3.3 healthcare substrate: an in-memory
// electronic health record store, per-patient vital-sign series, and a
// streaming alert engine with hysteresis whose output feeds AR overlays
// ("in-situ display of relevant information when required"). Ground-truth
// anomaly labels from the sensor simulator let the E8 experiment measure
// alert latency, precision, and recall.
package ehr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"arbd/internal/sensor"
)

// EHR errors.
var ErrNoPatient = errors.New("ehr: patient not found")

// Patient is one health record.
type Patient struct {
	ID          uint64
	Name        string
	Age         int
	Conditions  []string
	Medications []string
	Allergies   []string
}

// clone returns p with slices of its own, so a stored record shares nothing
// with its caller.
func (p Patient) clone() Patient {
	p.Conditions = slices.Clone(p.Conditions)
	p.Medications = slices.Clone(p.Medications)
	p.Allergies = slices.Clone(p.Allergies)
	return p
}

// Point is one vital-sign sample.
type Point struct {
	Time  time.Time
	Value float64
}

type seriesKey struct {
	patient uint64
	kind    sensor.VitalKind
}

// Store keeps patients and, per (patient, vital), a time-sorted series of
// samples. Safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	patients map[uint64]Patient
	ids      []uint64
	vitals   map[seriesKey][]Point
}

// NewStore returns an empty EHR store.
func NewStore() *Store {
	return &Store{patients: make(map[uint64]Patient), vitals: make(map[seriesKey][]Point)}
}

// PutPatient stores or replaces a record.
func (s *Store) PutPatient(p Patient) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.patients[p.ID]; !ok {
		s.ids = append(s.ids, p.ID)
	}
	s.patients[p.ID] = p.clone()
}

// GetPatient fetches a record.
func (s *Store) GetPatient(id uint64) (Patient, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.patients[id]
	if !ok {
		return Patient{}, fmt.Errorf("%w: %d", ErrNoPatient, id)
	}
	return p.clone(), nil
}

// PatientIDs returns all patient IDs in insertion order.
func (s *Store) PatientIDs() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]uint64(nil), s.ids...)
}

// RecordVital adds a vitals sample to the patient's series. Samples usually
// arrive in time order and append; a late one is inserted after every sample
// not later than it.
func (s *Store) RecordVital(patientID uint64, v sensor.VitalSample) {
	k := seriesKey{patientID, v.Kind}
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := s.vitals[k]
	i := len(pts)
	if i > 0 && v.Time.Before(pts[i-1].Time) {
		i = sort.Search(len(pts), func(j int) bool { return pts[j].Time.After(v.Time) })
	}
	s.vitals[k] = slices.Insert(pts, i, Point{Time: v.Time, Value: v.Value})
}

// VitalsWindow returns the samples of one vital in [from, to], in time order.
func (s *Store) VitalsWindow(patientID uint64, kind sensor.VitalKind, from, to time.Time) []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pts := s.vitals[seriesKey{patientID, kind}]
	lo := sort.Search(len(pts), func(i int) bool { return !pts[i].Time.Before(from) })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].Time.After(to) })
	if lo >= hi {
		return nil
	}
	return slices.Clone(pts[lo:hi])
}

// LatestVital returns the most recent sample of one vital; ok is false when
// none was recorded.
func (s *Store) LatestVital(patientID uint64, kind sensor.VitalKind) (p Point, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pts := s.vitals[seriesKey{patientID, kind}]
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

// AlertRule fires when the windowed mean of a vital crosses a bound.
type AlertRule struct {
	Name   string
	Kind   sensor.VitalKind
	Window time.Duration
	// Above fires when mean > Above (use with High=true); Below fires when
	// mean < Below. Zero disables that side.
	Above float64
	Below float64
	// Cooldown suppresses re-alerts for the same (patient, rule).
	Cooldown time.Duration
}

// StandardRules returns clinically-plausible defaults matching the anomaly
// episodes the sensor simulator injects.
func StandardRules() []AlertRule {
	return []AlertRule{
		{Name: "tachycardia", Kind: sensor.VitalHeartRate, Window: 15 * time.Second, Above: 130, Cooldown: time.Minute},
		{Name: "bradycardia", Kind: sensor.VitalHeartRate, Window: 15 * time.Second, Below: 40, Cooldown: time.Minute},
		{Name: "hypoxemia", Kind: sensor.VitalSpO2, Window: 15 * time.Second, Below: 91, Cooldown: time.Minute},
	}
}

// Alert is one fired alert.
type Alert struct {
	Time      time.Time
	PatientID uint64
	Rule      string
	Value     float64 // windowed mean that triggered
}

// AlertEngine evaluates rules over per-patient sliding windows as samples
// arrive. Safe for concurrent use across patients; per-patient streams are
// expected in time order (the usual per-device guarantee).
type AlertEngine struct {
	store *Store
	rules []AlertRule

	mu       sync.Mutex
	lastFire map[string]time.Time // patient/rule -> last alert
	alerts   []Alert
}

// NewAlertEngine returns an engine over the store with the given rules.
func NewAlertEngine(store *Store, rules []AlertRule) *AlertEngine {
	return &AlertEngine{store: store, rules: rules, lastFire: make(map[string]time.Time)}
}

// Ingest records the sample and evaluates rules, returning any alerts fired
// by this sample.
func (e *AlertEngine) Ingest(patientID uint64, v sensor.VitalSample) []Alert {
	e.store.RecordVital(patientID, v)
	var fired []Alert
	for _, r := range e.rules {
		if r.Kind != v.Kind {
			continue
		}
		pts := e.store.VitalsWindow(patientID, r.Kind, v.Time.Add(-r.Window), v.Time)
		if len(pts) == 0 {
			continue
		}
		var sum float64
		for _, p := range pts {
			sum += p.Value
		}
		mean := sum / float64(len(pts))
		trigger := (r.Above != 0 && mean > r.Above) || (r.Below != 0 && mean < r.Below)
		if !trigger {
			continue
		}
		key := fmt.Sprintf("%d/%s", patientID, r.Name)
		e.mu.Lock()
		if last, ok := e.lastFire[key]; ok && v.Time.Sub(last) < r.Cooldown {
			e.mu.Unlock()
			continue
		}
		e.lastFire[key] = v.Time
		a := Alert{Time: v.Time, PatientID: patientID, Rule: r.Name, Value: mean}
		e.alerts = append(e.alerts, a)
		e.mu.Unlock()
		fired = append(fired, a)
	}
	return fired
}

// Alerts returns all alerts fired so far.
func (e *AlertEngine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.alerts...)
}

// OverlayMetrics derives the metric map the ARML interpreter consumes for a
// patient's live overlay: latest value of each vital.
func (s *Store) OverlayMetrics(patientID uint64) map[string]float64 {
	out := make(map[string]float64, 3)
	for _, kind := range []sensor.VitalKind{sensor.VitalHeartRate, sensor.VitalSpO2, sensor.VitalSystolicBP} {
		if p, ok := s.LatestVital(patientID, kind); ok {
			out[kind.String()] = p.Value
		}
	}
	return out
}
