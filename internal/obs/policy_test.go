package obs

import "testing"

func TestPolicyZeroValueKeepsAll(t *testing.T) {
	var p Policy
	for key := uint64(0); key < 100; key++ {
		if !p.Keep("anything", key) {
			t.Fatalf("zero policy dropped key %d", key)
		}
	}
}

func TestPolicyDeterministicAndRoughlyUniform(t *testing.T) {
	p := Policy{Default: 10}
	kept := 0
	for key := uint64(1); key <= 10000; key++ {
		a, b := p.Keep("c", key), p.Keep("c", key)
		if a != b {
			t.Fatalf("key %d: verdict not deterministic", key)
		}
		if a {
			kept++
		}
	}
	// 1-in-10 over 10k sequential keys: expect ~1000, allow wide slack.
	if kept < 600 || kept > 1500 {
		t.Errorf("kept %d of 10000 at rate 10", kept)
	}
}

func TestPolicyZeroKeyFallsBackToClassHash(t *testing.T) {
	p := Policy{Default: 2}
	// With key 0 the verdict must still be deterministic per class.
	if p.Keep("class-a", 0) != p.Keep("class-a", 0) {
		t.Error("key-0 verdict unstable")
	}
}
