package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestEntropyReportRoundTrip(t *testing.T) {
	rep, err := RunEntropy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"VQ", "VQT", "MT", "ADP"} {
		em, ok := rep.Methods[m]
		if !ok {
			t.Fatalf("method %s missing from report", m)
		}
		if em.Ratio <= 1 {
			t.Errorf("%s: compression ratio %.2f not > 1", m, em.Ratio)
		}
		if em.EncodeMBps <= 0 || em.DecodeMBps <= 0 {
			t.Errorf("%s: non-positive throughput (%f, %f)", m, em.EncodeMBps, em.DecodeMBps)
		}
		for _, stages := range []map[string]EntropyStage{em.Encode, em.Decode} {
			for _, key := range []string{"predict_quant", "huffman", "lossless"} {
				if stages[key].NsPerValue <= 0 {
					t.Errorf("%s: stage %s has no cost attributed", m, key)
				}
			}
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEntropyReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Dataset != rep.Dataset || len(back.Methods) != len(rep.Methods) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, rep)
	}
	if back.Methods["MT"].Ratio != rep.Methods["MT"].Ratio {
		t.Fatalf("ratio changed in round trip")
	}

	var text, cmp bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "ADP") {
		t.Fatalf("text table missing methods:\n%s", text.String())
	}
	if err := CompareEntropy(&cmp, back, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cmp.String(), "MT") {
		t.Fatalf("comparison missing methods:\n%s", cmp.String())
	}
}
