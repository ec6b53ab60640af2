package trainer

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/preprocess"
)

// privateClientSource is a job's private, unshared consumer of one
// producer: every rank's batch is fetched over a bare preprocess.Client
// at the producer's own DP width — no service, no tenant key, no
// admission, no failover.
type privateClientSource struct {
	client  *preprocess.Client
	samples preprocess.Source
}

func (p privateClientSource) Assign(iter, dp int) ([]data.Sample, [][]data.Sample, error) {
	ranks := make([][]data.Sample, dp)
	var batch []data.Sample
	for d := 0; d < dp; d++ {
		rb, err := p.client.Fetch(context.Background(), int64(iter), d)
		if err != nil {
			return nil, nil, err
		}
		for _, mb := range rb.Microbatches {
			for _, s := range mb {
				ranks[d] = append(ranks[d], p.samples.Sample(s.SampleIndex))
			}
		}
		if len(ranks[d]) == 0 {
			return nil, nil, fmt.Errorf("empty batch for iter %d rank %d", iter, d)
		}
		batch = append(batch, ranks[d]...)
	}
	return batch, ranks, nil
}

// The rebasing pin for the shared preprocessing tier: a trainer
// sourcing batches through a 1-tenant preprocess.Service must be
// byte-identical to the same trainer on a private consumer of the
// producer fleet, with reordering on. Tenant 0's split at the
// trainer's DP width matches the producer's own split, so sharing the
// tier changes who multiplexes, never what trains.
func TestServiceSingleTenantMatchesPrivatePool(t *testing.T) {
	h := newPoolHarness(t)
	const iters = 4

	// Each run gets its own fleet, so neither sees the other's
	// producer-side cache.
	privFleet, err := preprocess.StartFleet(h.pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer privFleet.Close()
	client, err := preprocess.Dial(privFleet.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	private := DistTrainConfig(h.spec, h.plan, h.corpus)
	private.Source = privateClientSource{client: client, samples: h.corpus}
	ref, err := train(t, private, iters)
	if err != nil {
		t.Fatal(err)
	}

	fleet, err := preprocess.StartFleet(h.pcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	stats := &metrics.PoolStats{}
	shared := DistTrainConfig(h.spec, h.plan, h.corpus)
	shared.Source = &PoolSource{Pool: h.tenant(t, fleet, stats), Samples: h.corpus}
	res, err := train(t, shared, iters)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.Iterations, ref.Iterations) {
		t.Errorf("1-tenant service run diverged from private-consumer reference:\n got %+v\nwant %+v",
			res.Iterations, ref.Iterations)
	}
	if res.MFU != ref.MFU || res.TokensPerSec != ref.TokensPerSec {
		t.Errorf("aggregates diverged: MFU %g vs %g, tok/s %g vs %g",
			res.MFU, ref.MFU, res.TokensPerSec, ref.TokensPerSec)
	}
	snap := stats.Snapshot()
	if want := int64(iters * h.pcfg.DPSize); snap.Fetches != want {
		t.Errorf("service fetches = %d, want %d (one per iteration and rank)", snap.Fetches, want)
	}
	if snap.Failovers != 0 || snap.Rejections != 0 {
		t.Errorf("healthy 1-tenant service recorded failovers=%d rejections=%d",
			snap.Failovers, snap.Rejections)
	}
}
