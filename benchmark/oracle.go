package main

import (
	"fmt"
	"strings"

	"arbd/internal/core"
	"arbd/internal/geo"
)

// maxAnnotations is the platform's default overlay cap (core.Config).
const maxAnnotations = 20

func geoPoint(lat, lon float64) geo.Point { return geo.Point{Lat: lat, Lon: lon} }

// oracle checks frames against the city regenerated from the same seed and
// configuration the shards were started with.
type oracle struct {
	names []string // POI name by ID; IDs start at 1
}

func newOracle(w world) *oracle {
	pois := geo.GenerateCity(w.cityConfig())
	o := &oracle{names: make([]string, len(pois)+1)}
	for _, p := range pois {
		o.names[p.ID] = p.Name
	}
	return o
}

// checkFrame verifies one decoded overlay: at most the configured number of
// annotations, each naming a POI that exists in the city, labelled with that
// POI's name (interpretation may append a tag).
func (o *oracle) checkFrame(f *core.DecodedFrame) error {
	if len(f.Annotations) > maxAnnotations {
		return fmt.Errorf("oracle: %d annotations, cap is %d", len(f.Annotations), maxAnnotations)
	}
	for i := range f.Annotations {
		a := &f.Annotations[i]
		if a.ID == 0 || a.ID >= uint64(len(o.names)) {
			return fmt.Errorf("oracle: annotation %d is not a POI of the city", a.ID)
		}
		if !strings.HasPrefix(a.Label, o.names[a.ID]) {
			return fmt.Errorf("oracle: annotation %d labelled %q, POI is %q", a.ID, a.Label, o.names[a.ID])
		}
	}
	return nil
}
