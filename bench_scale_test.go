package sgmldb

// Scale benchmark (BENCH_scale.json): the cost of one single-article
// commit into an in-memory database that already holds 1k, 5k or 10k
// generated articles. A commit whose cost grows with the corpus makes
// the whole load quadratic; this benchmark shows the curve.
//
// Run with: go test -run '^$' -bench ScaleCommit -benchtime 200x .

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"testing"

	"sgmldb/internal/corpus"
)

// BenchmarkScaleCommit reports, per commit, the time (ns/op), the bytes
// allocated (B/op) and the share of the process's CPU time the garbage
// collector used during the timed commits (gc-cpu-share). The corpus is
// bulk-loaded in batches of 500 outside the timer, followed by nine
// warm-up commits that fold the batches into the steady state the
// measured commits see.
func BenchmarkScaleCommit(b *testing.B) {
	for _, docs := range []int{1000, 5000, 10000} {
		b.Run(fmt.Sprintf("docs=%dk", docs/1000), func(b *testing.B) {
			db, err := OpenDTD(corpus.ArticleDTD)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			gen := corpus.NewGenerator(corpus.Params{Seed: 17})
			next := 0
			bulkLoad(b, db, gen, &next, docs)
			commitBytes(b, db, gen, &next, 9)
			srcs := make([]string, b.N)
			for i := range srcs {
				srcs[i] = gen.Article(next + i)
			}
			cpu := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
			rtmetrics.Read(cpu)
			gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()
			b.ReportAllocs()
			b.ResetTimer()
			for _, src := range srcs {
				if _, err := db.LoadDocuments([]string{src}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// The runtime updates these at each collection: a window in
			// which none completed reports 0, the collector's actual share.
			rtmetrics.Read(cpu)
			share := 0.0
			if total := cpu[1].Value.Float64() - total0; total > 0 {
				share = (cpu[0].Value.Float64() - gc0) / total
			}
			b.ReportMetric(share, "gc-cpu-share")
		})
	}
}
