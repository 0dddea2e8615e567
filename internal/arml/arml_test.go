package arml

import (
	"errors"
	"strings"
	"testing"
)

func sampleDoc() *Document {
	return &Document{
		Features: []Feature{
			{
				ID:      "poi-1",
				Name:    "Star Cafe",
				Enabled: true,
				Tags:    []Tag{{Key: "category", Value: "restaurant"}},
				Anchors: []Anchor{{
					Lat: 22.3364, Lon: 114.2655, AltM: 12,
					Assets: []VisualAsset{
						{Kind: AssetText, Text: "Star Cafe"},
						{Kind: AssetImage, Href: "https://example.com/cafe.png"},
					},
				}},
			},
			{
				ID:      "poi-2",
				Name:    "Museum",
				Enabled: true,
				Anchors: []Anchor{{
					Lat: 22.30, Lon: 114.17,
					Assets: []VisualAsset{{Kind: AssetModel, Href: "museum.glb", ScaleM: 2}},
				}},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data, err := Encode(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), xmlHeaderPrefix) {
		t.Fatalf("missing XML header: %.40s", data)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != 2 {
		t.Fatalf("features = %d", len(got.Features))
	}
	f := got.Features[0]
	if f.ID != "poi-1" || f.Name != "Star Cafe" || !f.Enabled {
		t.Fatalf("feature = %+v", f)
	}
	if len(f.Tags) != 1 || f.Tags[0].Key != "category" || f.Tags[0].Value != "restaurant" {
		t.Fatalf("tags = %v", f.Tags)
	}
	if len(f.Anchors) != 1 || f.Anchors[0].Lat != 22.3364 {
		t.Fatalf("anchors = %+v", f.Anchors)
	}
	if len(f.Anchors[0].Assets) != 2 || f.Anchors[0].Assets[1].Kind != AssetImage {
		t.Fatalf("assets = %+v", f.Anchors[0].Assets)
	}
	if got.Version != "1.0" {
		t.Fatalf("version = %q", got.Version)
	}
}

const xmlHeaderPrefix = "<?xml"

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not xml at all <<<")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Document)
		want   error
	}{
		{"missing id", func(d *Document) { d.Features[0].ID = "" }, ErrNoID},
		{"duplicate id", func(d *Document) { d.Features[1].ID = "poi-1" }, ErrDuplicateID},
		{"bad anchor", func(d *Document) { d.Features[0].Anchors[0].Lat = 200 }, ErrBadAnchor},
		{"bad asset kind", func(d *Document) { d.Features[0].Anchors[0].Assets[0].Kind = "hologram" }, ErrBadAssetKind},
		{"empty asset", func(d *Document) {
			d.Features[0].Anchors[0].Assets[0] = VisualAsset{Kind: AssetText}
		}, ErrEmptyAsset},
	}
	for _, c := range cases {
		doc := sampleDoc()
		c.mutate(doc)
		if err := doc.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestInterpreterFiresInRange(t *testing.T) {
	in := NewInterpreter([]Rule{
		{Metric: "crowding", Min: 0.75, Max: 10, Tag: Tag{Key: "crowd", Value: "busy"}},
		{Metric: "crowding", Min: 0, Max: 0.25, Tag: Tag{Key: "crowd", Value: "quiet"}},
	})
	if tags := in.Interpret(map[string]float64{"crowding": 0.9}); len(tags) != 1 || tags[0].Value != "busy" {
		t.Fatalf("tags = %v", tags)
	}
	if tags := in.Interpret(map[string]float64{"crowding": 0.5}); len(tags) != 0 {
		t.Fatalf("mid-range fired: %v", tags)
	}
	if tags := in.Interpret(map[string]float64{"other": 1}); len(tags) != 0 {
		t.Fatalf("unknown metric fired: %v", tags)
	}
}

func TestInterpreterTextFormatting(t *testing.T) {
	in := NewInterpreter([]Rule{
		{Metric: "stock", Min: 0, Max: 3, Tag: Tag{Key: "stock", Value: "low"}, Text: "only %.0f left"},
	})
	tags := in.Interpret(map[string]float64{"stock": 2})
	if len(tags) != 1 || tags[0].Value != "only 2 left" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestInterpreterDeterministicOrder(t *testing.T) {
	in := NewInterpreter([]Rule{
		{Metric: "a", Min: 0, Max: 10, Tag: Tag{Key: "zz", Value: "1"}},
		{Metric: "a", Min: 0, Max: 10, Tag: Tag{Key: "aa", Value: "2"}},
	})
	tags := in.Interpret(map[string]float64{"a": 5})
	if len(tags) != 2 || tags[0].Key != "aa" {
		t.Fatalf("order = %v", tags)
	}
}

func TestBuiltinVocabularies(t *testing.T) {
	retail := RetailVocabulary()
	if len(retail.rules) == 0 {
		t.Fatal("retail vocabulary empty")
	}
	tags := retail.Interpret(map[string]float64{"crowding": 0.9, "stock": 1, "discount": 0.3})
	if len(tags) != 3 {
		t.Fatalf("retail tags = %v", tags)
	}
	health := HealthVocabulary()
	tags = health.Interpret(map[string]float64{"heart_rate": 150, "spo2": 88})
	if len(tags) != 2 {
		t.Fatalf("health tags = %v", tags)
	}
	for _, tag := range tags {
		if tag.Key != "alert" {
			t.Fatalf("unexpected tag %v", tag)
		}
	}
	if tags := health.Interpret(map[string]float64{"heart_rate": 70, "spo2": 98}); len(tags) != 0 {
		t.Fatalf("healthy vitals fired alerts: %v", tags)
	}
}
