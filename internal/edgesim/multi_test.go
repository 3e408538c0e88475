package edgesim

import (
	"testing"
	"time"
)

func TestRunMultiDNNValidation(t *testing.T) {
	cfg := DefaultMultiConfig(UploadJoint)
	cfg.Models = cfg.Models[:1]
	if _, err := RunMultiDNN(cfg); err == nil {
		t.Error("single model accepted")
	}
	cfg = DefaultMultiConfig(UploadStrategy(0))
	if _, err := RunMultiDNN(cfg); err == nil {
		t.Error("invalid strategy accepted")
	}
	cfg = DefaultMultiConfig(UploadJoint)
	cfg.Duration = 0
	if _, err := RunMultiDNN(cfg); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestMultiDNNBothModelsServed(t *testing.T) {
	res, err := RunMultiDNN(DefaultMultiConfig(UploadJoint))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for _, q := range res.Queries {
		counts[q.Model]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("a model starved: %v", counts)
	}
	// Round robin keeps the counts within one of each other.
	diff := counts[0] - counts[1]
	if diff < -1 || diff > 1 {
		t.Errorf("round robin unbalanced: %v", counts)
	}
	lats := res.MeanLatencyPerModel(2)
	for i, l := range lats {
		if l <= 0 {
			t.Errorf("model %d mean latency %v", i, l)
		}
	}
	if res.UploadDone <= 0 {
		t.Error("no upload time recorded")
	}
}

// TestMultiDNNJointBeatsSequential: jointly ranking units lets both models
// improve early, so total early-phase latency is lower than finishing one
// model before starting the other.
func TestMultiDNNJointBeatsSequential(t *testing.T) {
	sumLatFirst := func(s UploadStrategy, window time.Duration) time.Duration {
		cfg := DefaultMultiConfig(s)
		res, err := RunMultiDNN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, q := range res.Queries {
			if q.Issued < window {
				sum += q.Latency
			}
		}
		return sum
	}
	window := 30 * time.Second
	joint := sumLatFirst(UploadJoint, window)
	seq := sumLatFirst(UploadSequential, window)
	if joint >= seq {
		t.Errorf("joint early latency %v not below sequential %v", joint, seq)
	}
}

func TestMultiDNNDeterministic(t *testing.T) {
	a, err := RunMultiDNN(DefaultMultiConfig(UploadJoint))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiDNN(DefaultMultiConfig(UploadJoint))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestUploadStrategyString(t *testing.T) {
	if UploadJoint.String() != "joint" || UploadSequential.String() != "sequential" {
		t.Error("strategy names wrong")
	}
	if UploadStrategy(9).String() == "" {
		t.Error("unknown strategy has empty name")
	}
}
