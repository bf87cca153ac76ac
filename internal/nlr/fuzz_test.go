package nlr

import "testing"

// FuzzSummarizeLossless: summarization of any token stream expands back to
// the original, at every window constant.
func FuzzSummarizeLossless(f *testing.F) {
	f.Add([]byte("abcabcabc"), uint8(10))
	f.Add([]byte(""), uint8(1))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		toks := make([]string, len(data))
		for i, b := range data {
			toks[i] = string(rune('a' + int(b)%5))
		}
		K := int(k)%20 + 1
		elems := Summarize(toks, K, nil)
		got := Expand(elems)
		if len(got) != len(toks) {
			t.Fatalf("expand len %d != %d", len(got), len(toks))
		}
		for i := range got {
			if got[i] != toks[i] {
				t.Fatalf("token %d: %q != %q", i, got[i], toks[i])
			}
		}
		if len(elems) > len(toks) {
			t.Fatal("summary longer than input")
		}
	})
}
