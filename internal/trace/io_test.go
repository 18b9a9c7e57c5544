package trace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	k := validKernel()
	var buf bytes.Buffer
	if err := k.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, got) {
		t.Error("binary round trip changed the kernel")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	k := validKernel()
	var buf bytes.Buffer
	if err := k.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, got) {
		t.Error("json round trip changed the kernel")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace file at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadRejectsInvalidKernel(t *testing.T) {
	k := validKernel()
	k.CTAs[0].Warps[0].Insts = k.CTAs[0].Warps[0].Insts[:1] // no exit
	var buf bytes.Buffer
	if err := k.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("invalid kernel accepted on load")
	}
}

// TestValidateRejectsBadInstructions: an unknown opcode or a negative
// latency is refused by Validate and by every JSON reader. Left through, a
// negative compute latency makes skipping and per-cycle execution disagree
// (the fast-forward target lands in the past), and an unknown opcode parks
// its warp forever until the deadlock guard fires.
func TestValidateRejectsBadInstructions(t *testing.T) {
	for name, in := range map[string]Inst{
		"unknown op":             {PC: 0, Op: OpExit + 1},
		"op 9":                   {PC: 0, Op: 9},
		"negative compute lat":   {PC: 0, Op: OpCompute, Lat: -1000},
		"negative load lat":      {PC: 0, Op: OpLoad, Addr: 0x1000, Lat: -1},
		"unknown op and bad lat": {PC: 0, Op: 200, Lat: -1},
	} {
		k := validKernel()
		w := &k.CTAs[0].Warps[0]
		w.Insts[0] = in
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		var buf bytes.Buffer
		if err := k.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(&buf); err == nil {
			t.Errorf("%s: ReadJSON accepted", name)
		}
		buf.Reset()
		if err := SingleLaunch(k).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadAppJSON(&buf); err == nil {
			t.Errorf("%s: ReadAppJSON accepted", name)
		}
	}
	// Zero latency is legal: a zero-cost compute still takes its issue cycle.
	k := validKernel()
	k.CTAs[0].Warps[0].Insts[0] = Inst{PC: 0, Op: OpCompute, Lat: 0}
	if err := k.Validate(); err != nil {
		t.Errorf("zero-latency compute rejected: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	k := validKernel()
	dir := t.TempDir()
	for _, name := range []string{"k.trace", "k.json"} {
		path := filepath.Join(dir, name)
		if err := k.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(k, got) {
			t.Errorf("%s: round trip changed the kernel", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Error("missing file accepted")
	}
}
