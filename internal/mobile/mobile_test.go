package mobile

import (
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
)

func TestDialRejectsUnknownModel(t *testing.T) {
	if _, err := DialContext(context.Background(), Config{ID: 1, Model: "bogus", MasterAddr: "127.0.0.1:1"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDialRejectsUnreachableMaster(t *testing.T) {
	if _, err := DialContext(context.Background(), Config{ID: 1, Model: dnn.ModelMobileNet, MasterAddr: "127.0.0.1:1"}); err == nil {
		t.Error("unreachable master accepted")
	}
}

func TestDisconnectedClientOperations(t *testing.T) {
	// A client that never connected must fail cleanly on every
	// edge-dependent operation.
	c := &Client{server: geo.NoServer}
	if _, err := c.UploadStepContext(context.Background()); err == nil {
		t.Error("UploadStep without a connection succeeded")
	}
	if present, total := c.CacheState(); present != 0 || total != 0 {
		t.Errorf("CacheState without a plan = %d/%d", present, total)
	}
}
