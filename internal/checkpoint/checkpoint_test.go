package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tree"
)

func taxa(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return out
}

func sampleState(t testing.TB, nTaxa, classes int) (*State, *tree.Tree) {
	t.Helper()
	tr := tree.NewRandom(taxa(nTaxa), classes, rand.New(rand.NewSource(int64(nTaxa))))
	for i, e := range tr.Edges() {
		for c := 0; c < classes; c++ {
			e.SetLength(c, 0.01*float64(i+1)+0.001*float64(c))
		}
	}
	s := &State{
		Iteration: 7,
		LnL:       -12345.678,
		Taxa:      tr.Taxa,
		BLClasses: classes,
		Edges:     FromTree(tr),
		Shared:    [][]float64{{1, 1, 1, 1, 1, 1, 1}, {0.5, 2, 1, 1, 1, 1, 1}},
	}
	return s, tr
}

func TestStateRoundTrip(t *testing.T) {
	s, tr := sampleState(t, 12, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Iteration != 7 || back.LnL != -12345.678 || back.BLClasses != 3 {
		t.Fatalf("header changed: %+v", back)
	}
	rebuilt, err := back.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(tr, rebuilt) {
		t.Fatal("topology changed through checkpoint")
	}
	// Branch lengths of every class must survive exactly.
	re := rebuilt.Edges()
	for i, e := range tr.Edges() {
		for c := 0; c < 3; c++ {
			if re[i].Length(c) != e.Length(c) {
				t.Fatalf("edge %d class %d length changed", i, c)
			}
		}
	}
	if len(back.Shared) != 2 || back.Shared[1][0] != 0.5 {
		t.Fatalf("shared params changed: %v", back.Shared)
	}
}

func TestStateDetectsCorruption(t *testing.T) {
	s, _ := sampleState(t, 8, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
	if _, err := Read(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'Z'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBuildTreeValidation(t *testing.T) {
	s, _ := sampleState(t, 6, 1)
	s.Edges[0].A = 9999
	if _, err := s.BuildTree(); err == nil {
		t.Error("out-of-range half-node accepted")
	}
	s2, _ := sampleState(t, 6, 2)
	s2.BLClasses = 1
	if _, err := s2.BuildTree(); err == nil {
		t.Error("class count mismatch accepted")
	}
	// Missing edge → disconnected tree.
	s3, _ := sampleState(t, 6, 1)
	s3.Edges = s3.Edges[:len(s3.Edges)-1]
	if _, err := Read(bytes.NewReader(mustEncode(t, s3))); err == nil {
		t.Error("edge-count mismatch accepted at read time")
	}
}

func mustEncode(t *testing.T, s *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeV1 reproduces the legacy framing: magic | u32 1 | body | crc32(body).
func encodeV1(t *testing.T, s *State) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := writeBody(&body, s); err != nil {
		t.Fatal(err)
	}
	out := []byte(stateMagic)
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = append(out, body.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body.Bytes()))
	return out
}

func TestReadAcceptsLegacyV1(t *testing.T) {
	s, tr := sampleState(t, 10, 2)
	back, err := Read(bytes.NewReader(encodeV1(t, s)))
	if err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if back.Iteration != s.Iteration || back.LnL != s.LnL {
		t.Fatalf("v1 header fields changed: %+v", back)
	}
	rebuilt, err := back.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(tr, rebuilt) {
		t.Fatal("v1 topology changed through checkpoint")
	}
	// ... and v1 corruption is still caught by the trailing CRC.
	bad := encodeV1(t, s)
	bad[len(bad)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted v1 checkpoint accepted")
	}
}

func TestV2Diagnostics(t *testing.T) {
	s, _ := sampleState(t, 8, 1)
	data := mustEncode(t, s)

	// Truncation must be reported as truncation (header declares more
	// body bytes than the file holds), not as a generic parse error.
	_, err := Read(bytes.NewReader(data[:len(data)-5]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated file: got %v, want a truncation diagnostic", err)
	}

	// A flipped body byte must be reported as a checksum mismatch.
	bad := append([]byte(nil), data...)
	bad[20] ^= 0x01
	_, err = Read(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupt body: got %v, want a checksum diagnostic", err)
	}

	// A future version must be rejected by number, not misparsed.
	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(future[4:], 99)
	_, err = Read(bytes.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 99") {
		t.Errorf("future version: got %v, want an unsupported-version diagnostic", err)
	}

	// Trailing garbage (e.g. two checkpoints concatenated by a botched
	// write) is rejected rather than silently ignored.
	_, err = Read(bytes.NewReader(append(append([]byte(nil), data...), 0xEE)))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage: got %v, want a trailing-garbage diagnostic", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s, _ := sampleState(t, 9, 2)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Iteration != s.Iteration || back.LnL != s.LnL || len(back.Edges) != len(s.Edges) {
		t.Fatalf("Encode/Decode round trip changed state: %+v", back)
	}
}

// v2Frame wraps body in a valid v2 header (length and CRC).
func v2Frame(body []byte) []byte {
	out := []byte(stateMagic)
	out = binary.LittleEndian.AppendUint32(out, stateVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// TestDecodeHugeHeaderCounts feeds Decode short checkpoints whose counts
// claim far more data than they hold. Each must fail without allocating
// by the claimed counts (a 36-byte v2 file declaring 2^24 taxa used to
// allocate 256 MB before failing at EOF).
func TestDecodeHugeHeaderCounts(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint64(nil, 7)
	prefix = binary.LittleEndian.AppendUint64(prefix, 0)
	taxa := binary.LittleEndian.AppendUint32(append([]byte(nil), prefix...), 1<<24)
	edges := append([]byte(nil), prefix...)
	edges = binary.LittleEndian.AppendUint32(edges, 3)
	for i := 0; i < 3; i++ {
		edges = binary.LittleEndian.AppendUint32(edges, 0)
	}
	edges = binary.LittleEndian.AppendUint32(edges, 1<<20) // classes
	edges = binary.LittleEndian.AppendUint32(edges, 3)     // 2·3−3 edges
	v1 := append([]byte(stateMagic), 1, 0, 0, 0)
	hugeBody := append([]byte(stateMagic), 2, 0, 0, 0)
	hugeBody = binary.LittleEndian.AppendUint32(hugeBody, maxBodyLen)
	hugeBody = binary.LittleEndian.AppendUint32(hugeBody, 0)
	for name, data := range map[string][]byte{
		"v2-taxa":   v2Frame(taxa),
		"v2-edges":  v2Frame(edges),
		"v1-taxa":   append(v1, taxa...),
		"v1-edges":  append(append([]byte(nil), v1...), edges...),
		"body-size": hugeBody,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte checkpoint accepted", name, len(data))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: %d-byte checkpoint allocated %d bytes", name, len(data), alloc)
		}
	}
	if n := len(v2Frame(taxa)); n != 36 {
		t.Errorf("v2-taxa input is %d bytes, want the 36-byte reproducer", n)
	}
}

// FuzzDecode checks that no input crashes or exhausts the checkpoint
// decoder and that every accepted state re-encodes stably. Crashers
// found by fuzzing live in testdata/fuzz/FuzzDecode and are replayed by
// plain `go test`.
func FuzzDecode(f *testing.F) {
	for _, dims := range [][2]int{{8, 1}, {9, 2}, {12, 3}} {
		s, _ := sampleState(f, dims[0], dims[1])
		blob, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		first, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded state does not encode: %v", err)
		}
		back, err := Decode(first)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		second, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("state changed across an encode/decode round trip")
		}
	})
}
