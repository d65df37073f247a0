package sgmldb

// Durability benchmarks (BENCH_durability.json):
//
//	BenchmarkLoadDurable  the price of the WAL on the write path, by batch
//	                      size. A whole batch is one log record and one
//	                      fsync, so the per-document overhead must shrink
//	                      as batches grow — if it doesn't, the commit path
//	                      is syncing per document.
//	BenchmarkRecovery     OpenDTD against an existing data directory: once
//	                      replaying a pure log tail, once restoring from a
//	                      checkpoint with an empty tail.
//	BenchmarkScrub        the online integrity scrub over a live primary's
//	                      log, by tail length (BENCH_robustness.json): a
//	                      full re-read and checksum walk, priced so the
//	                      operator knows what a background scrub costs.
//
// Run with: go test -run '^$' -bench 'LoadDurable|Recovery|Scrub' .

import (
	"fmt"
	"os"
	"testing"
)

func benchArticleDTD(b *testing.B) string {
	b.Helper()
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		b.Fatal(err)
	}
	return string(dtd)
}

func benchArticleSrc(b *testing.B) string {
	b.Helper()
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		b.Fatal(err)
	}
	return string(src)
}

// BenchmarkLoadDurable loads one batch of parsed documents into a fresh
// database per iteration, with and without a data directory. Fresh per
// iteration because loads accumulate: timing b.N loads into one database
// measures its growth, not the commit path. The durable variants pay one
// Append+fsync per batch; auto-checkpointing is disabled so the
// measurement is the log alone.
func BenchmarkLoadDurable(b *testing.B) {
	dtd := benchArticleDTD(b)
	src := benchArticleSrc(b)
	for _, batch := range []int{1, 4, 16} {
		srcs := make([]string, batch)
		for i := range srcs {
			srcs[i] = src
		}
		b.Run(fmt.Sprintf("InMemory/batch=%d", batch), func(b *testing.B) {
			b.ReportMetric(float64(batch), "docs/batch")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := OpenDTD(dtd)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := db.LoadDocuments(srcs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Durable/batch=%d", batch), func(b *testing.B) {
			b.ReportMetric(float64(batch), "docs/batch")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := OpenDTD(dtd, WithDataDir(b.TempDir()), WithCheckpointEvery(-1))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := db.LoadDocuments(srcs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkScrub measures Database.Scrub on a live primary whose log
// tail holds 4, 16 or 64 committed batches. The scrub re-reads the log
// from disk under the log mutex and re-verifies every frame checksum
// and the sequence chain, so its cost is linear in tail bytes — the
// number an operator needs before putting it on a timer.
func BenchmarkScrub(b *testing.B) {
	dtd := benchArticleDTD(b)
	src := benchArticleSrc(b)
	for _, batches := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("batches=%d", batches), func(b *testing.B) {
			db, err := OpenDTD(dtd, WithDataDir(b.TempDir()), WithCheckpointEvery(-1))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < batches; i++ {
				if _, err := db.LoadDocuments([]string{src}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := db.Scrub()
				if err != nil {
					b.Fatal(err)
				}
				if rep.Frames != batches+1 { // schema frame + one per batch
					b.Fatalf("scrubbed %d frames, want %d", rep.Frames, batches+1)
				}
			}
		})
	}
}

// BenchmarkRecovery measures OpenDTD on a data directory holding 16
// committed batches — once with everything in the log tail (replay
// re-parses every document), once compacted into a checkpoint (recovery
// deserializes the snapshot and replays nothing).
func BenchmarkRecovery(b *testing.B) {
	dtd := benchArticleDTD(b)
	src := benchArticleSrc(b)
	const batches = 16

	seed := func(b *testing.B, dir string, checkpoint bool) {
		b.Helper()
		db, err := OpenDTD(dtd, WithDataDir(dir), WithCheckpointEvery(-1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			if _, err := db.LoadDocuments([]string{src}); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{
		{"Replay", false},
		{"Checkpoint", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			seed(b, dir, tc.checkpoint)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := OpenDTD(dtd, WithDataDir(dir), WithCheckpointEvery(-1))
				if err != nil {
					b.Fatal(err)
				}
				if got := len(loadedDocs(db)); got != batches {
					b.Fatalf("recovered %d documents, want %d", got, batches)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
