package fxrt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func passthrough(ctx *StageCtx, in DataSet) (DataSet, error) { return in, nil }

func TestRunWithEdgesComputesCorrectly(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		{Name: "a", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			return in.(int) * 2, nil
		}},
		{Name: "b", Workers: 1, Replicas: 3, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			return in.(int) + 1, nil
		}},
	}}
	var transfers int32
	edges := []Edge{{
		Name: "edge:shift",
		Transfer: func(recv *StageCtx, in DataSet) (DataSet, error) {
			atomic.AddInt32(&transfers, 1)
			return in.(int) + 100, nil
		},
	}}
	// A third stage with a free edge exercises the nil-Transfer path.
	p.Stages = append(p.Stages, Stage{Name: "store", Workers: 1, Replicas: 1,
		Run: passthrough})
	edges = append(edges, Edge{Name: "edge:none"})
	stats, err := p.RunWithEdges(func(i int) DataSet { return i }, 40, 5, edges)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataSets != 40 {
		t.Errorf("processed %d", stats.DataSets)
	}
	if int(transfers) != 40 {
		t.Errorf("transfer ran %d times, want 40", transfers)
	}
	if _, ok := stats.Ops["edge:shift"]; !ok {
		t.Errorf("transfer time not recorded: %v", stats.Ops)
	}
}

func TestRunWithEdgesValuesEndToEnd(t *testing.T) {
	final := make([]int64, 32)
	p := &Pipeline{Stages: []Stage{
		{Name: "gen", Workers: 1, Replicas: 3, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			v := in.(int)
			return [2]int{v, v * v}, nil
		}},
		{Name: "sink", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			kv := in.([2]int)
			atomic.StoreInt64(&final[kv[0]], int64(kv[1]))
			return in, nil
		}},
	}}
	edges := []Edge{{
		Name: "edge:inc",
		Transfer: func(recv *StageCtx, in DataSet) (DataSet, error) {
			kv := in.([2]int)
			kv[1]++
			return kv, nil
		},
	}}
	if _, err := p.RunWithEdges(func(i int) DataSet { return i }, 32, 4, edges); err != nil {
		t.Fatal(err)
	}
	for i := range final {
		if final[i] != int64(i*i+1) {
			t.Fatalf("final[%d] = %d, want %d", i, final[i], i*i+1)
		}
	}
}

func TestRunWithEdgesBlocksSender(t *testing.T) {
	// A slow transfer runs inside the receiving attempt: with 1 replica
	// each and near-zero stage work, throughput is bounded by the
	// transfer time.
	const transferMS = 4
	p := &Pipeline{Stages: []Stage{
		{Name: "a", Workers: 1, Replicas: 1, Run: passthrough},
		{Name: "b", Workers: 1, Replicas: 1, Run: passthrough},
	}}
	edges := []Edge{{
		Name: "edge:slow",
		Transfer: func(recv *StageCtx, in DataSet) (DataSet, error) {
			time.Sleep(transferMS * time.Millisecond)
			return in, nil
		},
	}}
	n := 30
	stats, err := p.RunWithEdges(func(i int) DataSet { return i }, n, 5, edges)
	if err != nil {
		t.Fatal(err)
	}
	maxThr := 1000.0 / transferMS
	if stats.Throughput > maxThr*1.3 {
		t.Errorf("throughput %.1f/s exceeds transfer-bound %.1f/s — sender not blocked",
			stats.Throughput, maxThr)
	}
}

func TestRunWithEdgesErrors(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		{Name: "a", Workers: 1, Replicas: 1, Run: passthrough},
		{Name: "b", Workers: 1, Replicas: 1, Run: passthrough},
	}}
	if _, err := p.RunWithEdges(func(i int) DataSet { return i }, 10, 1, nil); err == nil {
		t.Error("edge count mismatch accepted")
	}
	bad := []Edge{{
		Name: "edge:bad",
		Transfer: func(recv *StageCtx, in DataSet) (DataSet, error) {
			if in.(int) == 3 {
				return nil, fmt.Errorf("lost packet")
			}
			return in, nil
		},
	}}
	if _, err := p.RunWithEdges(func(i int) DataSet { return i }, 10, 1, bad); err == nil {
		t.Error("transfer error swallowed")
	}
	if _, err := (&Pipeline{}).RunWithEdges(func(i int) DataSet { return i }, 10, 1, nil); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := p.RunWithEdges(func(i int) DataSet { return i }, 0, 0, []Edge{{}}); err == nil {
		t.Error("zero data sets accepted")
	}
}
