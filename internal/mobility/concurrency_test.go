package mobility

import (
	"sync"
	"testing"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// TestPredictorsConcurrentPrediction: every trained predictor must be
// read-only at prediction time — a prepared Env shares one predictor across
// all concurrent simulation runs, and a sharded run's decide pass predicts
// from every shard at once. Run under -race in CI.
func TestPredictorsConcurrentPrediction(t *testing.T) {
	ds, pl := testEnv(t, trace.KAISTConfig(), 20*time.Second)
	train, test := ds.Train, ds.Test
	preds := []Predictor{
		&SVR{Seed: 1},
		&Markov{},
		&Linear{},
		&LSTM{Seed: 1, Epochs: 1, MaxExamples: 50},
	}
	for _, p := range preds {
		if err := p.Fit(train, pl, 3); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}

	recent := test[0].Points[:3]
	for _, p := range preds {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			results := make([][]geo.ServerID, 8)
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p.PredictPoint(recent)
					results[i] = p.Rank(recent, 2)
				}(i)
			}
			wg.Wait()
			for i := 1; i < len(results); i++ {
				if len(results[i]) != len(results[0]) {
					t.Fatalf("concurrent Rank calls disagreed: %v vs %v", results[i], results[0])
				}
				for j := range results[i] {
					if results[i][j] != results[0][j] {
						t.Fatalf("concurrent Rank calls disagreed: %v vs %v", results[i], results[0])
					}
				}
			}
		})
	}
}
