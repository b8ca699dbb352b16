package sketch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// TestSchemaEncodingsPinned pins the empty encoding of every production
// schema: names, kinds and parameters. The digests are those of the
// hand-built sets the schemas replaced, so a schema or parameter edit
// that would move journaled or served sketch bytes fails here.
func TestSchemaEncodingsPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		schema Schema
		size   int
		sha256 string
	}{
		{"CDNAnalysis", CDNAnalysis, 32996, "1ba1e0cadd4cab8a21fe9880b0aa775a7232601c0d54cc8abdc02c4ff1a0793a"},
		{"CDNTail", CDNTail, 32896, "314ea9179199c69c80bdfac184811543a99cec2edca5680a0192cc99b9c2e058"},
		{"BNGEngine", BNGEngine, 32933, "4bbdfc9ab167d97c3e3a9250910ad3c48c41a3e01896a4147ebd5a85aa0ac30a"},
	} {
		enc := c.schema.New().Encode()
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); len(enc) != c.size || got != c.sha256 {
			t.Errorf("%s: empty encoding is %d bytes sha256 %s, want %d bytes %s", c.name, len(enc), got, c.size, c.sha256)
		}
	}
}

// TestSchemaNewRejects: an invalid declaration panics instead of
// building a set that cannot merge with its peers.
func TestSchemaNewRejects(t *testing.T) {
	for _, sc := range []Schema{
		{{"", KindCard}},
		{{"a", KindCard}, {"a", KindTopK}},
		{{"a", Kind(9)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schema%v.New() did not panic", sc)
				}
			}()
			sc.New()
		}()
	}
}

// TestSummarize: every sketch is rendered in canonical name order with
// exactly its kind's fields, read through the sketch's own accessors,
// and an empty quantile sketch carries no samples.
func TestSummarize(t *testing.T) {
	s := Schema{{"t", KindTopK}, {"q", KindQuantile}, {"c", KindCard}, {"e", KindQuantile}}.New()
	q, tk, c := s.Quantile("q"), s.TopK("t"), s.Card("c")
	for i := uint64(1); i <= 40; i++ {
		q.Add(float64(i))
		tk.Add(i%5, i)
		c.Add(i)
	}
	probs := []float64{0.5, 0.99}
	got := s.Summarize(probs, 2)
	want := []Summary{
		{Name: "c", Kind: "card", Estimate: c.Estimate(), RSE: c.RSE()},
		{Name: "e", Kind: "quantile"},
		{Name: "q", Kind: "quantile", Count: 40, Quantiles: []QuantilePoint{
			{P: 0.5, V: q.Query(0.5)}, {P: 0.99, V: q.Query(0.99)}}},
		{Name: "t", Kind: "topk", N: tk.N(), Slack: tk.Slack(), Top: tk.Top(2)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Summarize:\n got %+v\nwant %+v", got, want)
	}
	if len(got[3].Top) != 2 || got[3].Top[0].Key != 0 {
		t.Fatalf("top entries = %+v, want the two heaviest keys, key 0 first", got[3].Top)
	}
	b, err := json.Marshal(got[3].Top[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"key":0,"count":180}` {
		t.Errorf("entry JSON = %s", b)
	}
}
