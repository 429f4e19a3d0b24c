package mandel

import (
	"slices"
	"sync"
	"testing"

	"aspectpar/internal/exec"
)

// byHandRowFarm is the static row farm written without aspects: two
// goroutines, a Worker each, rows dealt round-robin, one Render call per row.
func byHandRowFarm(spec Spec, workers int) ([][]uint16, error) {
	ws := make([]*Worker, workers)
	var wg sync.WaitGroup
	for k := range ws {
		w, err := NewWorker(spec)
		if err != nil {
			return nil, err
		}
		ws[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := k; r < spec.Height; r += workers {
				w.Render([]int32{int32(r)})
			}
		}()
	}
	wg.Wait()
	img := make([][]uint16, spec.Height)
	for _, w := range ws {
		for r, counts := range w.Rows() {
			img[r] = counts
		}
	}
	return img, nil
}

// BenchmarkStaticRowFarm is Fig 16 in wall-clock time, in process: what a row
// costs through the woven static farm (farm + concurrency on two workers),
// through the same farm written by hand, and in the sequential loop, on the
// benchmark's woven-local view. Report-only.
func BenchmarkStaticRowFarm(b *testing.B) {
	spec := DefaultSpec(64, 8192)
	want := Sequential(spec)
	for _, c := range []struct {
		name   string
		render func() ([][]uint16, error)
	}{
		{"woven", func() ([][]uint16, error) {
			return Build(spec, 2, Config{Schedule: Static}).Render(exec.Real(), spec)
		}},
		{"byhand", func() ([][]uint16, error) { return byHandRowFarm(spec, 2) }},
		{"sequential", func() ([][]uint16, error) { return Sequential(spec), nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var img [][]uint16
			for i := 0; i < b.N; i++ {
				var err error
				if img, err = c.render(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.Height), "ns/row")
			for r := range want {
				if !slices.Equal(img[r], want[r]) {
					b.Fatalf("row %d differs from the sequential render", r)
				}
			}
		})
	}
}
