package isa

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary 64-bit words to the decoder: it must never
// panic, and anything it accepts must re-encode to a word that decodes
// to the same instruction (a semantic fixpoint — don't-care bits may
// normalize to zero).
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 32; i++ {
		w, err := Encode(randomInstruction(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w)
	}
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, w uint64) {
		in, err := Decode(w)
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid instruction: %v (%v)", in, err)
		}
		w2, err := Encode(in)
		if err != nil {
			t.Fatalf("accepted instruction does not re-encode: %v (%v)", in, err)
		}
		in2, err := Decode(w2)
		if err != nil {
			t.Fatalf("re-encoded word does not decode: %#x (%v)", w2, err)
		}
		if !reflect.DeepEqual(canonical(in), canonical(in2)) {
			t.Fatalf("semantic fixpoint broken: %v vs %v", in, in2)
		}
	})
}

// FuzzParseLine feeds arbitrary text to the assembler: no panics, and
// accepted lines must round-trip through String.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		"RD 3 17", "WR 4 2 100", "PRE1 9", "NAND2 0 2 1", "MAJ3 0 2 4 1",
		"ACT * C 1 2", "ACT T7 R 0 8 2", "# comment", "", "RD x y",
		"NOT 2 1 ; trailing", "ACT * R 1023 1024 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		in, ok, err := ParseLine(line)
		if err != nil || !ok {
			return
		}
		again, ok2, err2 := ParseLine(in.String())
		if err2 != nil || !ok2 {
			t.Fatalf("String() of parsed %q does not re-parse: %q (%v)", line, in.String(), err2)
		}
		if !reflect.DeepEqual(canonical(in), canonical(again)) {
			t.Fatalf("assembler round trip: %v vs %v", in, again)
		}
	})
}

// FuzzActiveCount checks ActiveCount against the ActiveColumns expansion
// over arbitrary ranged (Start, Count, Stride) triples.
func FuzzActiveCount(f *testing.F) {
	f.Add(uint16(0), uint16(Cols), uint16(1))
	f.Add(uint16(Cols-1), uint16(4), uint16(0))
	f.Add(uint16(Cols), uint16(1), uint16(1))
	f.Add(uint16(10), uint16(65535), uint16(7))
	f.Fuzz(func(t *testing.T, start, count, stride uint16) {
		in := Instruction{Kind: KindAct, Ranged: true, Start: start, Count: count, Stride: stride}
		if got, want := in.ActiveCount(), len(in.ActiveColumns()); got != want {
			t.Fatalf("start %d count %d stride %d: ActiveCount = %d, want %d", start, count, stride, got, want)
		}
	})
}
