package arml

import (
	"fmt"
	"sort"
)

// Rule maps a raw analytics metric onto a human-meaningful semantic tag —
// the paper's §4.2 point that "big data does not tell us which correlations
// are meaningful, while AR requires semantically meaningful information".
// A rule fires when the metric value falls inside [Min, Max).
type Rule struct {
	Metric string
	Min    float64 // inclusive lower bound (use -inf style sentinels freely)
	Max    float64 // exclusive upper bound
	Tag    Tag     // the semantic tag to emit
	Text   string  // optional display text; %v is replaced by the value
}

// Interpreter evaluates rules over metric maps.
type Interpreter struct {
	rules []Rule
}

// NewInterpreter returns an interpreter with the given rules.
func NewInterpreter(rules []Rule) *Interpreter {
	return &Interpreter{rules: append([]Rule(nil), rules...)}
}

// Interpret evaluates all rules against the metrics, returning the fired
// tags sorted by key (deterministic output). Values render into Text where
// requested.
func (in *Interpreter) Interpret(metrics map[string]float64) []Tag {
	var out []Tag
	for _, r := range in.rules {
		v, ok := metrics[r.Metric]
		if !ok {
			continue
		}
		if v < r.Min || v >= r.Max {
			continue
		}
		tag := r.Tag
		if r.Text != "" {
			tag.Value = fmt.Sprintf(r.Text, v)
		}
		out = append(out, tag)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// RetailVocabulary returns the rule set the retail scenario uses to turn
// crowd/stock/price analytics into shopper-facing tags.
func RetailVocabulary() *Interpreter {
	return NewInterpreter([]Rule{
		{Metric: "crowding", Min: 0.75, Max: 10, Tag: Tag{Key: "crowd", Value: "busy"}, Text: ""},
		{Metric: "crowding", Min: 0, Max: 0.25, Tag: Tag{Key: "crowd", Value: "quiet"}, Text: ""},
		{Metric: "stock", Min: 0, Max: 3, Tag: Tag{Key: "stock", Value: "low"}, Text: "only %.0f left"},
		{Metric: "discount", Min: 0.1, Max: 1, Tag: Tag{Key: "deal", Value: "sale"}, Text: "%.0f%% off"},
		{Metric: "rating", Min: 4.5, Max: 5.01, Tag: Tag{Key: "quality", Value: "top-rated"}, Text: ""},
	})
}

// HealthVocabulary returns the rule set the healthcare scenario uses to turn
// vitals statistics into clinician-facing tags.
func HealthVocabulary() *Interpreter {
	return NewInterpreter([]Rule{
		{Metric: "heart_rate", Min: 120, Max: 400, Tag: Tag{Key: "alert", Value: "tachycardia"}, Text: "HR %.0f"},
		{Metric: "heart_rate", Min: 0, Max: 45, Tag: Tag{Key: "alert", Value: "bradycardia"}, Text: "HR %.0f"},
		{Metric: "spo2", Min: 0, Max: 92, Tag: Tag{Key: "alert", Value: "hypoxemia"}, Text: "SpO2 %.0f%%"},
		{Metric: "systolic_bp", Min: 160, Max: 400, Tag: Tag{Key: "alert", Value: "hypertensive"}, Text: "BP %.0f"},
	})
}
