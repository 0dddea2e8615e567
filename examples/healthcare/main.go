// Healthcare (§3.3): a ward of patients streams vitals; the alert engine
// fires on anomaly episodes and the clinician's AR view shows EHR context
// and live tags for the patient they are looking at.
package main

import (
	"fmt"
	"log"
	"time"

	"arbd/internal/arml"
	"arbd/internal/ehr"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

func main() {
	store := ehr.NewStore()
	engine := ehr.NewAlertEngine(store, ehr.StandardRules())
	vocab := arml.HealthVocabulary()

	// Admit a small ward.
	patients := []ehr.Patient{
		{ID: 1, Name: "K. Chan", Age: 67, Conditions: []string{"atrial fibrillation"}, Medications: []string{"warfarin"}},
		{ID: 2, Name: "M. Lau", Age: 45, Conditions: []string{"asthma"}, Allergies: []string{"aspirin"}},
		{ID: 3, Name: "S. Ng", Age: 72, Conditions: []string{"COPD"}, Medications: []string{"salbutamol"}},
	}
	for _, p := range patients {
		store.PutPatient(p)
	}

	// Patient 3 deteriorates 2 minutes in.
	sims := map[uint64]*sensor.Vitals{}
	for _, p := range patients {
		sims[p.ID] = sensor.NewVitals(int64(p.ID) * 101)
	}
	episodeAt := sim.Epoch.Add(2 * time.Minute)
	sims[3].StartEpisode(episodeAt, 3*time.Minute)

	fmt.Println("streaming vitals for 6 minutes at 1 Hz...")
	for sec := 0; sec < 360; sec++ {
		now := sim.Epoch.Add(time.Duration(sec) * time.Second)
		for pid, v := range sims {
			for _, samp := range v.Sample(now) {
				for _, alert := range engine.Ingest(pid, samp) {
					p, _ := store.GetPatient(pid)
					fmt.Printf("  [%s] ALERT %s: %s (%.0f) — lead %v after onset\n",
						alert.Time.Format("15:04:05"), p.Name, alert.Rule, alert.Value,
						alert.Time.Sub(episodeAt).Round(time.Second))
				}
			}
		}
	}

	// The clinician looks at patient 3: compose the AR overlay.
	p, err := store.GetPatient(3)
	if err != nil {
		log.Fatal(err)
	}
	metrics := store.OverlayMetrics(3)
	tags := vocab.Interpret(metrics)
	fmt.Printf("\nAR overlay for %s (age %d):\n", p.Name, p.Age)
	fmt.Printf("  conditions: %v  medications: %v\n", p.Conditions, p.Medications)
	fmt.Printf("  live vitals: HR %.0f  SpO2 %.0f%%  BP %.0f\n",
		metrics["heart_rate"], metrics["spo2"], metrics["systolic_bp"])
	for _, tag := range tags {
		fmt.Printf("  ⚠ %s: %s\n", tag.Key, tag.Value)
	}
	hist := store.VitalsWindow(3, sensor.VitalHeartRate, sim.Epoch, sim.Epoch.Add(time.Hour))
	fmt.Printf("  heart-rate history: %d samples recorded\n", len(hist))
	fmt.Printf("\ntotal alerts fired: %d\n", len(engine.Alerts()))
}
