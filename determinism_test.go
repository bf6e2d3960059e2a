package diffusion_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"diffusion"
)

// A run is a pure function of its seed. These tests assert it end to end,
// on the full protocol stack, by comparing the exported JSONL trace and
// the metrics snapshot byte for byte: against a second run of the same
// seed, and against SHA-256 digests checked in below, so the event
// schedule is pinned across commits as well as within one.
//
// A change that alters the schedule on purpose — a new event, a different
// tie-break, a protocol change — must update the digests in the same
// commit and say why. Any other digest change is a determinism bug.

// Reference digests (hex SHA-256 of the trace and metrics bytes).
const (
	testbedTraceSHA   = "8e333d216faa5fff2d40fe8744207168388d93905c2d8867dd6ca5bd3c8b5645"
	testbedMetricsSHA = "7b1306b1c88171ff9007341ae6d77eabd5d4c40f896c2cf45255cdebb61708a4"
	sampledTraceSHA   = "ac6a29d88364e086a209b15c1a73423a71366c3e0aaac102c5b1bce498797b5e"
	sampledMetricsSHA = "c2184b24428d0d4b78fbed2cf492cdbc8b8feb836e3faff2c651cd4fa21f70b3"
	gridTraceSHA      = "3a2f41542af4820ccd8df3625122f274a8c4afb289fc8feaac8243965c4427ca"
	gridMetricsSHA    = "6b9f06b99f5e708c4b1141ed740bed070e2b9e5c106c608e384d4d0cec484204"
)

// checkDigest fails t when b does not hash to the pinned digest want.
func checkDigest(t *testing.T, what string, b []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s digest = %s, pinned %s (%d bytes): the event schedule changed",
			what, got, want, len(b))
	}
}

// detRun executes a loaded testbed scenario — four sources reporting to
// the sink over the lossy default channel, with node churn injected — and
// returns the exported trace and metrics snapshot.
func detRun(t *testing.T, seed int64) (trace, metrics []byte) {
	return detRunSampled(t, seed, 0)
}

// detRunSampled is detRun with flight-path tracing at the given sampling
// rate.
func detRunSampled(t *testing.T, seed int64, sampling float64) (trace, metrics []byte) {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:          seed,
		Topology:      diffusion.TestbedTopology(),
		TraceSampling: sampling,
	})
	tr := net.NewTrace(0)
	interest, publication := surveillance()
	net.Node(diffusion.TestbedSink).Subscribe(interest, func(*diffusion.Message) {})
	for _, id := range diffusion.TestbedSources() {
		src := net.Node(id)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(2*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
	}
	inj := net.NewFaultInjector()
	inj.Churn(diffusion.ChurnConfig{
		Start: 30 * time.Second,
		Stop:  4 * time.Minute,
		MTBF:  time.Minute,
		MTTR:  20 * time.Second,
		Nodes: []uint32{20, 21, 24},
	})
	net.Run(5 * time.Minute)
	var tb, mb bytes.Buffer
	if err := tr.ExportJSONL(&tb); err != nil {
		t.Fatalf("export: %v", err)
	}
	net.MetricsSnapshot().Write(&mb)
	return tb.Bytes(), mb.Bytes()
}

func TestSameSeedIdenticalTraceHash(t *testing.T) {
	t1, m1 := detRun(t, 42)
	t2, m2 := detRun(t, 42)
	if sha256.Sum256(t1) != sha256.Sum256(t2) {
		t.Error("same seed produced different traces")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same seed produced different metrics snapshots")
	}
	t3, _ := detRun(t, 43)
	if sha256.Sum256(t1) == sha256.Sum256(t3) {
		t.Error("different seeds produced identical traces")
	}
}

func TestPinnedDigestTestbed(t *testing.T) {
	tr, m := detRun(t, 42)
	checkDigest(t, "testbed trace", tr, testbedTraceSHA)
	checkDigest(t, "testbed metrics", m, testbedMetricsSHA)
}

// TestPinnedDigestTraced pins the run with flight-path tracing sampled at
// 100%: the span records merged into the exported trace come from per-node
// rings and a deterministic merge.
func TestPinnedDigestTraced(t *testing.T) {
	tr, m := detRunSampled(t, 42, 1.0)
	if !bytes.Contains(tr, []byte(`"flow":`)) {
		t.Fatal("sampled run exported no flight-path spans")
	}
	checkDigest(t, "traced trace", tr, sampledTraceSHA)
	checkDigest(t, "traced metrics", m, sampledMetricsSHA)
	// Sub-unity sampling must be deterministic too (it draws from the
	// per-node streams), and tracing off must stay byte-identical to the
	// pre-trace baseline scenario.
	p1, _ := detRunSampled(t, 42, 0.25)
	p2, _ := detRunSampled(t, 42, 0.25)
	if !bytes.Equal(p1, p2) {
		t.Error("25% sampling: same seed produced different traces")
	}
	off, _ := detRunSampled(t, 42, 0)
	base, _ := detRun(t, 42)
	if !bytes.Equal(off, base) {
		t.Error("sampling=0 run differs from untraced run")
	}
}

// gridRun runs a 16x16 grid — 256 nodes, sink in one corner and sources
// in the other three, so traffic crosses the whole field.
func gridRun(t *testing.T) (trace, metrics []byte) {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     7,
		Topology: diffusion.GridTopology(16, 16, 9),
	})
	tr := net.NewTrace(0)
	interest, publication := surveillance()
	net.Node(1).Subscribe(interest, func(*diffusion.Message) {})
	for _, id := range []uint32{16, 241, 256} {
		src := net.Node(id)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(5*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
	}
	net.Run(2 * time.Minute)
	var tb, mb bytes.Buffer
	if err := tr.ExportJSONL(&tb); err != nil {
		t.Fatalf("export: %v", err)
	}
	net.MetricsSnapshot().Write(&mb)
	return tb.Bytes(), mb.Bytes()
}

func TestPinnedDigestGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node grid run")
	}
	tr, m := gridRun(t)
	checkDigest(t, "grid trace", tr, gridTraceSHA)
	checkDigest(t, "grid metrics", m, gridMetricsSHA)
}
