package ilcs

import (
	"math"
	"math/rand" //lint:allow wallclock instance generation is seeded by the caller — tours are a pure function of the seed
)

// tsp is the user-provided serial code of Listing 1's bottom half: a
// Traveling Salesman instance solved by random restart + 2-opt improvement
// (Johnson & McGeoch's classic local search, the paper's reference [24]).
type tsp struct {
	n    int
	dist [][]float64
}

// newTSP generates a random Euclidean instance. Every rank generates the
// same instance from the same seed (ILCS ships the input to all nodes).
func newTSP(cities int, seed int64) *tsp {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, cities)
	ys := make([]float64, cities)
	for i := 0; i < cities; i++ {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
	}
	d := make([][]float64, cities)
	for i := range d {
		d[i] = make([]float64, cities)
		for j := range d[i] {
			d[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	return &tsp{n: cities, dist: d}
}

// tourLen computes the closed-tour length.
func (t *tsp) tourLen(tour []int) float64 {
	total := 0.0
	for i := range tour {
		total += t.dist[tour[i]][tour[(i+1)%len(tour)]]
	}
	return total
}

// execFrom is CPU_Exec refining a given starting tour (the iterated local
// search mode: the framework hands workers the current champion to refine).
// It 2-opts to a local minimum and returns the length and the tour.
func (t *tsp) execFrom(start []int) (float64, []int) {
	tour := append([]int(nil), start...)
	improved := true
	for improved {
		improved = false
		for i := 0; i < t.n-1; i++ {
			for j := i + 1; j < t.n; j++ {
				// Gain of reversing tour[i+1..j]: replace edges
				// (i,i+1) and (j,j+1) with (i,j) and (i+1,j+1).
				a, b := tour[i], tour[(i+1)%t.n]
				c, d := tour[j], tour[(j+1)%t.n]
				if a == c || b == d {
					continue
				}
				delta := t.dist[a][c] + t.dist[b][d] - t.dist[a][b] - t.dist[c][d]
				if delta < -1e-9 {
					reverse(tour, i+1, j)
					improved = true
				}
			}
		}
	}
	return t.tourLen(tour), tour
}

// doubleBridge is the classic ILS perturbation kick: cut the tour into four
// segments and reconnect them in a different order — a move 2-opt cannot
// undo in one step.
func doubleBridge(tour []int, rng *rand.Rand) []int {
	n := len(tour)
	if n < 8 {
		out := append([]int(nil), tour...)
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	p1 := 1 + rng.Intn(n/4)
	p2 := p1 + 1 + rng.Intn(n/4)
	p3 := p2 + 1 + rng.Intn(n/4)
	out := make([]int, 0, n)
	out = append(out, tour[:p1]...)
	out = append(out, tour[p3:]...)
	out = append(out, tour[p2:p3]...)
	out = append(out, tour[p1:p2]...)
	return out
}

func reverse(tour []int, i, j int) {
	for i < j {
		tour[i], tour[j] = tour[j], tour[i]
		i++
		j--
	}
}
