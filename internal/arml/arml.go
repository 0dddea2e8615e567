// Package arml implements an ARML-like interchange format (§4.2): the paper
// argues that a standard markup such as OGC's Augmented Reality Markup
// Language is the bridge that lets big-data backends hand semantically
// tagged content to AR clients. This is a faithful subset — Features with
// geo Anchors carrying VisualAssets and semantic tags — encoded as XML via
// encoding/xml, plus the rule-based interpreter that turns raw analytics
// metrics into the human-meaningful tags AR needs (§4.2's "interpretation"
// challenge).
package arml

import (
	"encoding/xml"
	"errors"
	"fmt"

	"arbd/internal/geo"
)

// Validation errors.
var (
	ErrNoID         = errors.New("arml: feature missing id")
	ErrDuplicateID  = errors.New("arml: duplicate feature id")
	ErrBadAnchor    = errors.New("arml: anchor coordinates invalid")
	ErrBadAssetKind = errors.New("arml: unknown asset kind")
	ErrEmptyAsset   = errors.New("arml: asset has neither text nor href")
)

// AssetKind enumerates visual asset types. Values are part of the document
// format.
const (
	AssetText  = "text"
	AssetImage = "image"
	AssetModel = "model"
)

// Document is the root <arml> element.
type Document struct {
	XMLName  xml.Name  `xml:"arml"`
	Version  string    `xml:"version,attr"`
	Features []Feature `xml:"ARElements>Feature"`
}

// Feature is one augmentable entity (a POI, a patient, a vehicle...).
type Feature struct {
	ID          string   `xml:"id,attr"`
	Name        string   `xml:"name"`
	Description string   `xml:"description,omitempty"`
	Enabled     bool     `xml:"enabled"`
	Tags        []Tag    `xml:"metadata>tag,omitempty"`
	Anchors     []Anchor `xml:"anchors>GeoAnchor"`
}

// Tag is one semantic key/value annotation.
type Tag struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

// Anchor binds assets to a world location.
type Anchor struct {
	Lat    float64       `xml:"point>lat"`
	Lon    float64       `xml:"point>lon"`
	AltM   float64       `xml:"point>alt,omitempty"`
	Assets []VisualAsset `xml:"assets>asset"`
}

// VisualAsset is one renderable item attached to an anchor.
type VisualAsset struct {
	Kind   string  `xml:"kind,attr"`
	Text   string  `xml:"text,omitempty"`
	Href   string  `xml:"href,omitempty"`
	ScaleM float64 `xml:"scale,omitempty"`
}

// Encode serialises the document with an XML header and indentation.
func Encode(doc *Document) ([]byte, error) {
	if doc.Version == "" {
		doc.Version = "1.0"
	}
	body, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("arml: encoding: %w", err)
	}
	return append([]byte(xml.Header), body...), nil
}

// Decode parses a document and validates it.
//
//arbd:test-api the reference decoder core tests check a frame's ARML against
func Decode(data []byte) (*Document, error) {
	var doc Document
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("arml: decoding: %w", err)
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Validate checks structural invariants: unique non-empty feature IDs, valid
// anchor coordinates, known asset kinds, and non-empty assets.
func (d *Document) Validate() error {
	seen := make(map[string]bool, len(d.Features))
	for fi := range d.Features {
		f := &d.Features[fi]
		if f.ID == "" {
			return fmt.Errorf("%w: feature %d", ErrNoID, fi)
		}
		if seen[f.ID] {
			return fmt.Errorf("%w: %q", ErrDuplicateID, f.ID)
		}
		seen[f.ID] = true
		for ai, a := range f.Anchors {
			p := geo.Point{Lat: a.Lat, Lon: a.Lon}
			if !p.Valid() {
				return fmt.Errorf("%w: feature %q anchor %d: %v", ErrBadAnchor, f.ID, ai, p)
			}
			for _, asset := range a.Assets {
				switch asset.Kind {
				case AssetText, AssetImage, AssetModel:
				default:
					return fmt.Errorf("%w: %q in feature %q", ErrBadAssetKind, asset.Kind, f.ID)
				}
				if asset.Text == "" && asset.Href == "" {
					return fmt.Errorf("%w: feature %q", ErrEmptyAsset, f.ID)
				}
			}
		}
	}
	return nil
}
