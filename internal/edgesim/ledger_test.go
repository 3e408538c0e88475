package edgesim

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"perdnn/internal/dnn"
)

// cityLedger is everything a city run counts: the result's counters, the
// frozen metrics, and a hash of the event journal.
type cityLedger struct {
	TotalQueries, WindowQueries         int
	Connections, Hits, Misses, Partials int
	Failovers, LocalFallbacks           int
	SumLatency                          time.Duration
	Counters, Gauges                    map[string]int64
	EventsSHA256                        string
}

func ledgerOf(t *testing.T, res *CityResult) cityLedger {
	t.Helper()
	h := sha256.New()
	if err := WriteEvents(h, res.Events); err != nil {
		t.Fatal(err)
	}
	return cityLedger{
		TotalQueries: res.TotalQueries, WindowQueries: res.WindowQueries,
		Connections: res.Connections, Hits: res.Hits, Misses: res.Misses, Partials: res.Partials,
		Failovers: res.Failovers, LocalFallbacks: res.LocalFallbacks,
		SumLatency:   res.SumLatency,
		Counters:     res.Metrics.Counters,
		Gauges:       res.Metrics.Gauges,
		EventsSHA256: hex.EncodeToString(h.Sum(nil)),
	}
}

// TestCityLedgerGolden pins what a city run counts, exactly. The values
// were captured on the commit before the shadow metrics registry and the
// locked journal gave way to per-shard plain ledgers (PR 25) and hold on
// both sides of it: the ledger is a function of the configuration, not of
// who counts or on which shard.
func TestCityLedgerGolden(t *testing.T) {
	env := smallEnv(t)
	faulty := cityLedger{
		TotalQueries: 9388, WindowQueries: 1804,
		Connections: 61, Hits: 25, Misses: 36, Partials: 0,
		Failovers: 23, LocalFallbacks: 5,
		SumLatency: 1725758994795,
		Counters: map[string]int64{
			"cache_hits_total": 25, "cache_misses_total": 36, "cache_partials_total": 0,
			"connections_total": 61, "failovers_total": 23, "local_fallbacks_total": 5,
			"migration_bytes_total": 1535340600, "migration_truncated_layers_total": 0,
			"migrations_completed_total": 90, "migrations_ordered_total": 90,
			"migrations_truncated_total": 0, "plan_cache_local_misses_total": 1,
			"queries_total": 9388, "queries_window_total": 1804, "server_downs_total": 372,
		},
		Gauges: map[string]int64{
			"backhaul_active_servers": 51, "backhaul_down_bytes": 1535340600,
			"backhaul_peak_down_bps": 13647472, "backhaul_peak_up_bps": 68237360,
			"backhaul_up_bytes": 1535340600,
		},
		EventsSHA256: "94001eda22b779fe0448ab01f18a4ee50c99562b1e1d59dbff5e59798c3a1491",
	}
	clean := cityLedger{
		TotalQueries: 9818, WindowQueries: 1041,
		Connections: 34, Hits: 21, Misses: 13, Partials: 0,
		SumLatency: 1501848792219,
		Counters: map[string]int64{
			"cache_hits_total": 21, "cache_misses_total": 13, "cache_partials_total": 0,
			"connections_total": 34, "failovers_total": 0, "local_fallbacks_total": 0,
			"migration_bytes_total": 392364820, "migration_truncated_layers_total": 0,
			"migrations_completed_total": 23, "migrations_ordered_total": 23,
			"migrations_truncated_total": 0, "plan_cache_local_misses_total": 1,
			"queries_total": 9818, "queries_window_total": 1041, "server_downs_total": 0,
		},
		Gauges: map[string]int64{
			"backhaul_active_servers": 24, "backhaul_down_bytes": 392364820,
			"backhaul_peak_down_bps": 6823736, "backhaul_peak_up_bps": 6823736,
			"backhaul_up_bytes": 392364820,
		},
		EventsSHA256: "5de880e83a82747354a0929cf6fc605b2a328937a0e9b5a3d848e075af8aba7c",
	}

	sharded := faultyCfg()
	sharded.Shards = 4
	r50 := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 50)
	r50.MaxSteps = 40
	r50.RecordEvents = true
	for _, c := range []struct {
		name string
		cfg  CityConfig
		want cityLedger
	}{
		{"faulty/shards=1", faultyCfg(), faulty},
		{"faulty/shards=4", sharded, faulty},
		{"perdnn-r50", r50, clean},
	} {
		res, err := RunCity(env, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ledgerOf(t, res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ledger\n%#v\nwant\n%#v", c.name, got, c.want)
		}
	}
}
