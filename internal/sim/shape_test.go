package sim

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
)

// TestShapeSweep is a manual diagnostic printing the Fig. 7.2 curve shape.
// Run with CROSSROADS_SHAPE=1.
func TestShapeSweep(t *testing.T) {
	if os.Getenv("CROSSROADS_SHAPE") == "" {
		t.Skip("set CROSSROADS_SHAPE=1 to run")
	}
	rates := []float64{0.05, 0.2, 0.4, 0.6, 0.9, 1.25}
	fmt.Printf("%-6s %-12s %-12s %-12s\n", "rate", "vt-im", "aim", "crossroads")
	for _, rate := range rates {
		var tp [3]float64
		var extra [3]string
		for i, pol := range []string{"vt-im", "aim", "crossroads"} {
			arr, err := traffic.Poisson(traffic.PoissonConfig{
				Rate: rate, NumVehicles: 160, LanesPerRoad: 1,
				Mix: traffic.DefaultTurnMix(), Params: kinematics.FullScaleParams(),
			}, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Policy:       pol,
				Seed:         42,
				Intersection: intersection.FullScaleConfig(),
				Spec:         safety.FullScaleSpec(),
			}, arr)
			if err != nil {
				t.Fatal(err)
			}
			tp[i] = res.Summary.Throughput
			extra[i] = fmt.Sprintf("%.4f(c%d,i%d,m%d)", res.Summary.Throughput,
				res.Summary.Collisions, res.Incomplete, res.Summary.Messages)
		}
		fmt.Printf("%-6.2f %-22s %-22s %-22s\n", rate, extra[0], extra[1], extra[2])
	}
}
