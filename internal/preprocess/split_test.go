package preprocess

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/reorder"
)

// tieSource mixes one heavy sample in every eight with three light
// shapes whose modality sizes tie often: Algorithm 1's partition then
// parks the heavy samples alone and leaves several groups under and
// over quota, so which surplus sample the rebalance step moves where
// shows in the split.
type tieSource struct{}

func (tieSource) Sample(index int64) data.Sample {
	light := [...]struct{ images, gen int }{{1, 0}, {2, 0}, {1, 1}}
	sh := light[(index*5+index/3)%int64(len(light))]
	res := 32
	if index%8 == 0 {
		sh, res = struct{ images, gen int }{8, 1}, 64
	}
	s := fixedSource{images: sh.images, resolution: res, seqLen: 1024}.Sample(index)
	s.GenImages = sh.gen
	return s
}

// splitDigestWant pins the reorder-on producer split: sample indices
// per (DP width, iteration, rank, microbatch) for DP 1, 2 and 4 over
// tieSource. Any change to the partition or rebalance rule moves it.
const splitDigestWant = "d0f557d7a9ae12f4c4b4668fcc86ece7b45337b27a5eaa861773814a31573d68"

func TestProducerSplitDigest(t *testing.T) {
	cfg := Config{Source: tieSource{}, GlobalBatch: 16, DPSize: 4, Microbatch: 2,
		Reorder: true, PipelineStages: 4, Workers: 4}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := sha256.New()
	for _, dp := range []int{1, 2, 4} {
		for iter := int64(0); iter < 4; iter++ {
			for rank := 0; rank < dp; rank++ {
				rb, err := srv.FetchTenant(0, dp, iter, rank)
				if err != nil {
					t.Fatal(err)
				}
				for j, mb := range rb.Microbatches {
					fmt.Fprintf(h, "dp=%d iter=%d rank=%d mb=%d:", dp, iter, rank, j)
					for _, p := range mb {
						fmt.Fprintf(h, " %d", p.SampleIndex)
					}
					fmt.Fprintln(h)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != splitDigestWant {
		t.Errorf("producer split digest = %s, want %s", got, splitDigestWant)
	}

	// The pin only guards the rebalance rule if the partition actually
	// leaves unequal group sizes on this source.
	uneven := false
	for iter := int64(0); iter < 4; iter++ {
		costs := make([]float64, cfg.GlobalBatch)
		for i := range costs {
			p, err := ProcessSample(tieSource{}.Sample(iter*int64(cfg.GlobalBatch) + int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			costs[i] = modalitySize(p)
		}
		for _, dp := range []int{2, 4} {
			var part reorder.Partitioner
			groups, err := part.Partition(costs, dp)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				if len(g) != cfg.GlobalBatch/dp {
					uneven = true
				}
			}
		}
	}
	if !uneven {
		t.Error("tieSource never leaves unequal partition groups; the digest does not cover rebalancing")
	}
}
