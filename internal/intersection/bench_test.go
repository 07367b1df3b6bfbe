package intersection

import (
	"math"
	"testing"

	"crossroads/internal/geom"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// BenchmarkTileGridMark times one sample of the tile schedulers' sweep:
// the scale-model body, inflated by the Crossroads buffers, at a 30°
// heading in the middle of the box, marked over the stock 8x8 grid.
func BenchmarkTileGridMark(b *testing.B) {
	x, err := New(ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewTileGrid(x.Box(), 8)
	if err != nil {
		b.Fatal(err)
	}
	p := kinematics.ScaleModelParams()
	planLen, planWid := safety.TestbedSpec().ForCrossroads().InflatedDims(p.Length, p.Width)
	r := geom.NewRect(x.Box().Center(), planLen, planWid, math.Pi/6)
	set := make([]uint64, g.Words())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(set)
		if !g.Mark(set, r) {
			b.Fatal("the footprint marks no tile")
		}
	}
}
