package ehr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"arbd/internal/sensor"
	"arbd/internal/sim"
)

var t0 = sim.Epoch

func TestPatientRoundTrip(t *testing.T) {
	s := NewStore()
	p := Patient{
		ID: 7, Name: "Ada Wong", Age: 54,
		Conditions:  []string{"hypertension"},
		Medications: []string{"lisinopril"},
		Allergies:   []string{"penicillin"},
	}
	s.PutPatient(p)
	got, err := s.GetPatient(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || len(got.Conditions) != 1 || got.Allergies[0] != "penicillin" {
		t.Fatalf("got = %+v", got)
	}
}

// TestPatientsPutGet: several records stored side by side each read back
// under their own ID.
func TestPatientsPutGet(t *testing.T) {
	s := NewStore()
	for id := uint64(1); id <= 5; id++ {
		s.PutPatient(Patient{ID: id, Name: fmt.Sprintf("p%d", id), Age: int(20 + id)})
	}
	for id := uint64(1); id <= 5; id++ {
		got, err := s.GetPatient(id)
		if err != nil || got.Name != fmt.Sprintf("p%d", id) || got.Age != int(20+id) {
			t.Fatalf("GetPatient(%d) = %+v, %v", id, got, err)
		}
	}
}

// TestPatientValueIsolation: the stored record shares no slice with the
// caller that put it or the reader that got it.
func TestPatientValueIsolation(t *testing.T) {
	s := NewStore()
	p := Patient{ID: 7, Conditions: []string{"hypertension"}, Allergies: []string{"penicillin"}}
	s.PutPatient(p)
	p.Conditions[0] = "mutated"
	got, _ := s.GetPatient(7)
	if got.Conditions[0] != "hypertension" {
		t.Fatalf("PutPatient aliased the caller's slice: %+v", got)
	}
	got.Allergies[0] = "mutated"
	if again, _ := s.GetPatient(7); again.Allergies[0] != "penicillin" {
		t.Fatalf("GetPatient returned an aliasing slice: %+v", again)
	}
}

func TestGetMissingPatient(t *testing.T) {
	s := NewStore()
	if _, err := s.GetPatient(99); !errors.Is(err, ErrNoPatient) {
		t.Fatalf("err = %v", err)
	}
}

// TestGetMissingPatientAmongOthers: storing one record makes no other ID
// readable.
func TestGetMissingPatientAmongOthers(t *testing.T) {
	s := NewStore()
	s.PutPatient(Patient{ID: 1, Name: "present"})
	if _, err := s.GetPatient(2); !errors.Is(err, ErrNoPatient) {
		t.Fatalf("err = %v, want ErrNoPatient", err)
	}
	if _, err := s.GetPatient(1); err != nil {
		t.Fatalf("stored patient: %v", err)
	}
}

// TestPatientOverwriteReplacesRecord: a second put replaces the whole record,
// so a field the new record leaves empty does not survive from the old one.
func TestPatientOverwriteReplacesRecord(t *testing.T) {
	s := NewStore()
	s.PutPatient(Patient{ID: 1, Name: "old", Age: 40, Conditions: []string{"asthma"}})
	s.PutPatient(Patient{ID: 1, Name: "new"})
	got, _ := s.GetPatient(1)
	if got.Name != "new" || got.Age != 0 || len(got.Conditions) != 0 {
		t.Fatalf("got = %+v, want only the second record", got)
	}
}

func TestPatientUpdateDoesNotDuplicateID(t *testing.T) {
	s := NewStore()
	s.PutPatient(Patient{ID: 1, Name: "v1"})
	s.PutPatient(Patient{ID: 1, Name: "v2"})
	if ids := s.PatientIDs(); len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	got, _ := s.GetPatient(1)
	if got.Name != "v2" {
		t.Fatalf("name = %q", got.Name)
	}
}

func TestVitalsWindowAndLatest(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.RecordVital(1, sensor.VitalSample{
			Time: t0.Add(time.Duration(i) * time.Second), Kind: sensor.VitalHeartRate, Value: float64(60 + i),
		})
	}
	pts := s.VitalsWindow(1, sensor.VitalHeartRate, t0.Add(3*time.Second), t0.Add(6*time.Second))
	if len(pts) != 4 {
		t.Fatalf("window = %d pts", len(pts))
	}
	latest, ok := s.LatestVital(1, sensor.VitalHeartRate)
	if !ok || latest.Value != 69 {
		t.Fatalf("latest = %+v, %v", latest, ok)
	}
}

func recordHeartRate(s *Store, patient uint64, n int) {
	for i := 0; i < n; i++ {
		s.RecordVital(patient, sensor.VitalSample{
			Time: t0.Add(time.Duration(i) * time.Second), Kind: sensor.VitalHeartRate, Value: float64(60 + i),
		})
	}
}

// TestVitalsWindowInclusiveBounds: both ends of the window are inclusive.
func TestVitalsWindowInclusiveBounds(t *testing.T) {
	s := NewStore()
	recordHeartRate(s, 1, 10)
	pts := s.VitalsWindow(1, sensor.VitalHeartRate, t0.Add(2*time.Second), t0.Add(5*time.Second))
	if len(pts) != 4 { // 2, 3, 4, 5
		t.Fatalf("got %d points, want 4", len(pts))
	}
	if pts[0].Value != 62 || pts[3].Value != 65 {
		t.Fatalf("edge values %v, %v", pts[0].Value, pts[3].Value)
	}
}

// TestVitalsWindowUnknownSeries: a patient or vital never recorded has an
// empty window.
func TestVitalsWindowUnknownSeries(t *testing.T) {
	s := NewStore()
	recordHeartRate(s, 1, 10)
	if pts := s.VitalsWindow(2, sensor.VitalHeartRate, t0, t0.Add(time.Hour)); len(pts) != 0 {
		t.Fatalf("window of an unknown patient = %d pts", len(pts))
	}
	if pts := s.VitalsWindow(1, sensor.VitalSpO2, t0, t0.Add(time.Hour)); len(pts) != 0 {
		t.Fatalf("window of an unrecorded vital = %d pts", len(pts))
	}
}

// TestVitalsWindowReversedRange: a window whose end precedes its start is
// empty, even over recorded samples.
func TestVitalsWindowReversedRange(t *testing.T) {
	s := NewStore()
	recordHeartRate(s, 1, 10)
	if pts := s.VitalsWindow(1, sensor.VitalHeartRate, t0.Add(6*time.Second), t0.Add(3*time.Second)); len(pts) != 0 {
		t.Fatalf("reversed window = %d pts", len(pts))
	}
}

// TestLatestVital: nothing before the first sample, then the newest one.
func TestLatestVital(t *testing.T) {
	s := NewStore()
	if _, ok := s.LatestVital(1, sensor.VitalHeartRate); ok {
		t.Fatal("latest of an empty series")
	}
	recordHeartRate(s, 1, 5)
	if p, ok := s.LatestVital(1, sensor.VitalHeartRate); !ok || p.Value != 64 {
		t.Fatalf("latest = %+v, %v", p, ok)
	}
	if _, ok := s.LatestVital(1, sensor.VitalSpO2); ok {
		t.Fatal("latest of a vital never recorded")
	}
}

// TestVitalsOutOfOrderSamples: a late sample lands in time order, after
// every sample recorded earlier at the same time.
func TestVitalsOutOfOrderSamples(t *testing.T) {
	s := NewStore()
	for i, sec := range []int{0, 5, 2, 9, 5, 1} {
		s.RecordVital(1, sensor.VitalSample{Time: t0.Add(time.Duration(sec) * time.Second), Kind: sensor.VitalHeartRate, Value: float64(i)})
	}
	pts := s.VitalsWindow(1, sensor.VitalHeartRate, t0, t0.Add(time.Minute))
	var got []float64
	for _, p := range pts {
		got = append(got, p.Value)
	}
	// By time: 0s (#0), 1s (#5), 2s (#2), 5s (#1 then #4), 9s (#3).
	if want := []float64{0, 5, 2, 1, 4, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("window values = %v, want %v", got, want)
	}
	if latest, ok := s.LatestVital(1, sensor.VitalHeartRate); !ok || latest.Value != 3 {
		t.Fatalf("latest = %+v, %v; want the 9 s sample", latest, ok)
	}
}

func ingestSteady(e *AlertEngine, patient uint64, kind sensor.VitalKind, value float64, from time.Time, n int) []Alert {
	var all []Alert
	for i := 0; i < n; i++ {
		all = append(all, e.Ingest(patient, sensor.VitalSample{
			Time: from.Add(time.Duration(i) * time.Second), Kind: kind, Value: value,
		})...)
	}
	return all
}

func TestAlertEngineFiresOnThreshold(t *testing.T) {
	s := NewStore()
	e := NewAlertEngine(s, StandardRules())
	// Healthy heart rate: no alerts.
	if alerts := ingestSteady(e, 1, sensor.VitalHeartRate, 75, t0, 30); len(alerts) != 0 {
		t.Fatalf("healthy HR alerted: %v", alerts)
	}
	// Tachycardia: must fire.
	alerts := ingestSteady(e, 1, sensor.VitalHeartRate, 160, t0.Add(time.Minute+30*time.Second), 30)
	if len(alerts) == 0 {
		t.Fatal("tachycardia never alerted")
	}
	if alerts[0].Rule != "tachycardia" || alerts[0].Value <= 130 {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestAlertEngineWindowedMeanResistsSpikes(t *testing.T) {
	s := NewStore()
	e := NewAlertEngine(s, StandardRules())
	// 14 healthy samples then one spike: the 15s mean stays under threshold.
	var alerts []Alert
	for i := 0; i < 15; i++ {
		v := 75.0
		if i == 14 {
			v = 200
		}
		alerts = append(alerts, e.Ingest(1, sensor.VitalSample{
			Time: t0.Add(time.Duration(i) * time.Second), Kind: sensor.VitalHeartRate, Value: v,
		})...)
	}
	if len(alerts) != 0 {
		t.Fatalf("single spike alerted: %v", alerts)
	}
}

func TestAlertEngineCooldown(t *testing.T) {
	s := NewStore()
	e := NewAlertEngine(s, StandardRules())
	alerts := ingestSteady(e, 1, sensor.VitalHeartRate, 170, t0, 45)
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts in 45s despite 1m cooldown", len(alerts))
	}
	// After the cooldown expires a persistent condition re-alerts.
	more := ingestSteady(e, 1, sensor.VitalHeartRate, 170, t0.Add(2*time.Minute), 5)
	if len(more) != 1 {
		t.Fatalf("re-alert after cooldown: %d", len(more))
	}
}

func TestAlertEnginePerPatientIsolation(t *testing.T) {
	s := NewStore()
	e := NewAlertEngine(s, StandardRules())
	_ = ingestSteady(e, 1, sensor.VitalHeartRate, 170, t0, 20)
	alerts := ingestSteady(e, 2, sensor.VitalHeartRate, 170, t0, 20)
	if len(alerts) != 1 {
		t.Fatalf("patient 2 alerts = %d (cooldown leaked across patients?)", len(alerts))
	}
	total := e.Alerts()
	if len(total) != 2 {
		t.Fatalf("total alerts = %d", len(total))
	}
}

func TestHypoxemiaRule(t *testing.T) {
	s := NewStore()
	e := NewAlertEngine(s, StandardRules())
	alerts := ingestSteady(e, 1, sensor.VitalSpO2, 85, t0, 20)
	if len(alerts) == 0 || alerts[0].Rule != "hypoxemia" {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestOverlayMetrics(t *testing.T) {
	s := NewStore()
	s.RecordVital(1, sensor.VitalSample{Time: t0, Kind: sensor.VitalHeartRate, Value: 80})
	s.RecordVital(1, sensor.VitalSample{Time: t0, Kind: sensor.VitalSpO2, Value: 97})
	m := s.OverlayMetrics(1)
	if m["heart_rate"] != 80 || m["spo2"] != 97 {
		t.Fatalf("metrics = %v", m)
	}
	if _, ok := m["systolic_bp"]; ok {
		t.Fatal("absent vital reported")
	}
}

func TestEndToEndWithSimulatedVitals(t *testing.T) {
	// Wire the sensor simulator to the alert engine: an injected episode
	// must produce an alert within a clinically useful delay.
	s := NewStore()
	e := NewAlertEngine(s, StandardRules())
	v := sensor.NewVitals(77)
	var first *Alert
	episodeStart := t0.Add(60 * time.Second)
	v.StartEpisode(episodeStart, 2*time.Minute)
	for i := 0; i < 300 && first == nil; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		for _, samp := range v.Sample(now) {
			if alerts := e.Ingest(42, samp); len(alerts) > 0 && first == nil {
				a := alerts[0]
				first = &a
			}
		}
	}
	if first == nil {
		t.Fatal("episode never alerted")
	}
	latency := first.Time.Sub(episodeStart)
	if latency < 0 {
		t.Fatalf("alert before episode at %v", first.Time)
	}
	if latency > 30*time.Second {
		t.Fatalf("alert latency %v too slow", latency)
	}
}
