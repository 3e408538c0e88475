package trace

import (
	"testing"
	"time"

	"perdnn/internal/geo"
)

func genSmall(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	cfg.TrainUsers = 4
	cfg.TestUsers = 3
	cfg.Duration = 30 * time.Minute
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateValidation(t *testing.T) {
	cfg := KAISTConfig()
	cfg.TestUsers = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero users accepted")
	}
	cfg = KAISTConfig()
	cfg.BaseInterval = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero interval accepted")
	}
	cfg = KAISTConfig()
	cfg.Modes = nil
	if _, err := Generate(cfg); err == nil {
		t.Error("no modes accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	d := genSmall(t, KAISTConfig())
	if len(d.Train) != 4 || len(d.Test) != 3 {
		t.Fatalf("splits %d/%d", len(d.Train), len(d.Test))
	}
	wantSamples := int(30*time.Minute/(5*time.Second)) + 1
	for _, tr := range append(append([]Trajectory{}, d.Train...), d.Test...) {
		if tr.Len() != wantSamples {
			t.Errorf("user %d has %d samples, want %d", tr.User, tr.Len(), wantSamples)
		}
		for _, p := range tr.Points {
			if d.Area.Clamp(p) != p {
				t.Fatalf("user %d left the area: %v", tr.User, p)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, KAISTConfig())
	b := genSmall(t, KAISTConfig())
	for i := range a.Test {
		for j := range a.Test[i].Points {
			if a.Test[i].Points[j] != b.Test[i].Points[j] {
				t.Fatalf("user %d diverges at %d", i, j)
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	cfg := KAISTConfig()
	a := genSmall(t, cfg)
	cfg.Seed = 99
	b := genSmall(t, cfg)
	same := true
	for j := range a.Test[0].Points {
		if a.Test[0].Points[j] != b.Test[0].Points[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestSpeedCalibration checks the generated datasets land near the paper's
// reported average speeds: ~0.5 m/s for KAIST, ~3.9 m/s for Geolife.
func TestSpeedCalibration(t *testing.T) {
	// Compare at the original datasets' sampling rates: KAIST was
	// collected every 30 s, Geolife every 1-5 s. GPS noise inflates the
	// apparent path length at fine sampling, for us and for the originals.
	kBase, err := Generate(KAISTConfig())
	if err != nil {
		t.Fatal(err)
	}
	k, err := kBase.Resample(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v := k.MeanSpeed(); v < 0.3 || v > 0.8 {
		t.Errorf("KAIST mean speed %.2f m/s, want ~0.5", v)
	}
	g, err := Generate(GeolifeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := g.MeanSpeed(); v < 3.0 || v > 5.0 {
		t.Errorf("Geolife mean speed %.2f m/s, want ~3.9", v)
	}
	if g.MeanSpeed() < 4*k.MeanSpeed() {
		t.Errorf("Geolife (%.2f) must be much faster than KAIST (%.2f)", g.MeanSpeed(), k.MeanSpeed())
	}
}

func TestPaperScaleConfigs(t *testing.T) {
	k := KAISTConfig()
	if k.TestUsers != 31 {
		t.Errorf("KAIST test users = %d, want 31", k.TestUsers)
	}
	if k.Area.Width() != 1500 || k.Area.Height() != 2000 {
		t.Errorf("KAIST area = %vx%v, want 1500x2000", k.Area.Width(), k.Area.Height())
	}
	g := GeolifeConfig()
	if g.TestUsers != 138 {
		t.Errorf("Geolife test users = %d, want 138", g.TestUsers)
	}
	if g.Area.Width() != 7200 || g.Area.Height() != 5600 {
		t.Errorf("Geolife area = %vx%v, want 7200x5600", g.Area.Width(), g.Area.Height())
	}
}

func TestResample(t *testing.T) {
	d := genSmall(t, KAISTConfig())
	r, err := d.Resample(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Interval != 20*time.Second {
		t.Errorf("interval = %v", r.Interval)
	}
	orig := d.Test[0]
	res := r.Test[0]
	if res.Len() != (orig.Len()+3)/4 {
		t.Errorf("resampled len %d from %d", res.Len(), orig.Len())
	}
	for i := 0; i < res.Len(); i++ {
		if res.Points[i] != orig.Points[i*4] {
			t.Fatalf("resample mismatch at %d", i)
		}
	}
	if _, err := d.Resample(7 * time.Second); err == nil {
		t.Error("non-multiple interval accepted")
	}
	if _, err := d.Resample(0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestTrajectoryAccessors(t *testing.T) {
	tr := Trajectory{User: 1, Interval: time.Second, Points: []geo.Point{{}, {X: 3, Y: 4}}}
	if tr.Duration() != time.Second {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if tr.MeanSpeed() != 5 {
		t.Errorf("MeanSpeed = %v", tr.MeanSpeed())
	}
	empty := Trajectory{Interval: time.Second}
	if empty.Duration() != 0 || empty.MeanSpeed() != 0 {
		t.Error("empty trajectory stats not zero")
	}
}

func TestAllPointsCount(t *testing.T) {
	d := genSmall(t, KAISTConfig())
	want := 0
	for _, tr := range d.Train {
		want += tr.Len()
	}
	for _, tr := range d.Test {
		want += tr.Len()
	}
	if got := len(d.AllPoints()); got != want {
		t.Errorf("AllPoints = %d, want %d", got, want)
	}
}

// TestUsersRevisitPOIs verifies the routine structure that makes mobility
// prediction learnable: users return to previously visited places.
func TestUsersRevisitPOIs(t *testing.T) {
	cfg := KAISTConfig()
	cfg.TrainUsers = 1
	cfg.TestUsers = 1
	cfg.Duration = 6 * time.Hour
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count revisits at cell granularity: the user must come back to at
	// least one 100m cell after having left it.
	grid := geo.NewHexGrid(100)
	tr := d.Test[0]
	var visits []geo.HexCell
	for _, p := range tr.Points {
		c := grid.CellAt(p)
		if len(visits) == 0 || visits[len(visits)-1] != c {
			visits = append(visits, c)
		}
	}
	seen := map[geo.HexCell]int{}
	revisits := 0
	for _, c := range visits {
		seen[c]++
		if seen[c] > 1 {
			revisits++
		}
	}
	if revisits < 3 {
		t.Errorf("only %d cell revisits in 6h, routine structure missing", revisits)
	}
}

func TestServerPlacementScale(t *testing.T) {
	// With 50 m cells, the KAIST-like dataset must yield a substantial
	// number of edge servers (the paper's simulation has hundreds of cells,
	// e.g. "24 servers in KAIST" being only the top 5-7% most crowded).
	d, err := Generate(KAISTConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := geo.NewPlacement(geo.NewHexGrid(50), d.AllPoints())
	if pl.Len() < 100 {
		t.Errorf("KAIST placement has %d servers, want >= 100", pl.Len())
	}
}

func TestComputeStats(t *testing.T) {
	d := genSmall(t, KAISTConfig())
	st, err := d.ComputeStats(50)
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainUsers != 4 || st.TestUsers != 3 {
		t.Errorf("user counts %d/%d", st.TrainUsers, st.TestUsers)
	}
	if st.MeanSpeed <= 0 || st.MedianSpeed < 0 || st.P90Speed < st.MedianSpeed {
		t.Errorf("speed stats inconsistent: %+v", st)
	}
	if st.StationaryShare <= 0 || st.StationaryShare >= 1 {
		t.Errorf("stationary share %v", st.StationaryShare)
	}
	if st.CellsVisited <= 0 || st.CellChangesPerHour <= 0 {
		t.Errorf("coverage stats: %+v", st)
	}
	if st.String() == "" {
		t.Error("empty String")
	}
	if _, err := d.ComputeStats(0); err == nil {
		t.Error("zero radius accepted")
	}
	empty := &Dataset{Name: "x", Interval: time.Second}
	if _, err := empty.ComputeStats(50); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestStatsSeparateDatasets: the urban dataset is faster and less
// stationary than the campus one.
func TestStatsSeparateDatasets(t *testing.T) {
	k := genSmall(t, KAISTConfig())
	g := genSmall(t, GeolifeConfig())
	ks, err := k.ComputeStats(50)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := g.ComputeStats(50)
	if err != nil {
		t.Fatal(err)
	}
	if gs.MeanSpeed <= ks.MeanSpeed {
		t.Errorf("geolife %.2f m/s not above kaist %.2f", gs.MeanSpeed, ks.MeanSpeed)
	}
	if gs.CellChangesPerHour <= ks.CellChangesPerHour {
		t.Errorf("geolife changes %.1f/h not above kaist %.1f/h",
			gs.CellChangesPerHour, ks.CellChangesPerHour)
	}
}
