package probe

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"ownsim/internal/stats"
)

// Manifest is the machine-readable record of one tool invocation:
// configuration, seed, simulated time, result summary and digests of
// every emitted artifact. Serialization is deterministic (struct fields
// in declaration order, map keys sorted by encoding/json), so two runs
// of the same configuration and seed produce byte-identical manifests.
// Wall-clock timestamps are deliberately absent — they would break that
// contract; provenance lives in the config map and the digests.
type Manifest struct {
	// Tool names the emitting command ("ownsim", "sweep").
	Tool string `json:"tool"`
	// Config records the effective flag settings, stringified.
	Config map[string]string `json:"config"`
	// Cores is the terminal count.
	Cores int `json:"cores"`
	// Seed is the simulation seed.
	Seed uint64 `json:"seed"`
	// Cycles is the total simulated cycles (including drain).
	Cycles uint64 `json:"cycles,omitempty"`
	// Summary is the run digest for single-run tools.
	Summary *stats.Summary `json:"summary,omitempty"`
	// Points holds sweep results, one per (system, load).
	Points []Point `json:"points,omitempty"`
	// Artifacts digests the files emitted alongside the manifest.
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// Build stamps the emitting binary's provenance (module version and
	// VCS revision via debug.ReadBuildInfo); nil when unstamped.
	Build *BuildInfo `json:"build,omitempty"`
}

// EngineIntro is the state dump's view of the engine's active-set
// scheduler (flightrec.Snapshot, the record's dump.json): per-phase wake/tick counters plus whole-run fast-forward
// accounting. All values are deterministic functions of the simulated
// configuration and seed.
type EngineIntro struct {
	// Cycles is the engine's final cycle count.
	Cycles uint64 `json:"cycles"`
	// FastForwardedCy is the cycles RunUntil skipped through quiescence.
	FastForwardedCy uint64 `json:"fast_forwarded_cy"`
	// Phases holds one record per engine phase, in phase order.
	Phases []PhaseIntro `json:"phases"`
}

// PhaseIntro is one engine phase's scheduler counters (the dump's
// mirror of sim.PhaseStats).
type PhaseIntro struct {
	Phase         string `json:"phase"`
	Ticks         uint64 `json:"ticks"`
	WakesEvent    uint64 `json:"wakes_event"`
	WakesTimer    uint64 `json:"wakes_timer"`
	WakesSpurious uint64 `json:"wakes_spurious"`
	AwakeCycleSum uint64 `json:"awake_cycle_sum"`
	TimerHeapMax  int    `json:"timer_heap_max"`
}

// PoolIntro aggregates packet-pool counters over every source pool:
// total gets, fresh allocations, recycles, and the sum of per-pool
// high-water marks (an upper bound on simultaneously live packets).
type PoolIntro struct {
	Gets      uint64 `json:"gets"`
	Fresh     uint64 `json:"fresh"`
	Recycled  uint64 `json:"recycled"`
	HighWater uint64 `json:"high_water"`
}

// Point is one sweep sample in a manifest.
type Point struct {
	System     string  `json:"system"`
	Load       float64 `json:"load_fnc"`
	Latency    float64 `json:"avg_latency_cy"`
	Throughput float64 `json:"throughput_fnc"`
	Saturated  bool    `json:"saturated"`
}

// Artifact records one emitted file and its content digest.
type Artifact struct {
	// Name labels the artifact kind ("metrics", "trace", "dot").
	Name string `json:"name"`
	// Path is the file path the artifact was written to.
	Path string `json:"path"`
	// Bytes is the file length.
	Bytes int `json:"bytes"`
	// FNV64a is the hex FNV-1a digest of the content.
	FNV64a string `json:"fnv64a"`
}

// AddArtifact appends an artifact entry for the given content.
func (m *Manifest) AddArtifact(name, path string, content []byte) {
	m.Artifacts = append(m.Artifacts, Artifact{
		Name:   name,
		Path:   path,
		Bytes:  len(content),
		FNV64a: DigestHex(content),
	})
}

// WriteJSON writes the manifest as indented JSON followed by a newline.
func (m *Manifest) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DigestHex returns the FNV-1a 64-bit digest of b in hex. It is the
// repository's artifact fingerprint: cheap, dependency-free and stable
// across platforms (it is a content check against accidental
// nondeterminism, not a cryptographic seal).
func DigestHex(b []byte) string {
	h := fnv.New64a()
	//lint:ignore errcheck-own hash.Hash.Write is documented to never return an error
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
