package envdb

// Per-request scan accounting. DB.ScanChunks and Aggregator.AggregateCtx
// take a context.Context that carries trace spans and, through
// ContextWithScanStats, the counters below.
//
// ScanStats lives here (not in tsdb) so the telemetry server can read the
// counters without importing the storage engine.

import (
	"context"
	"sync/atomic"
)

// ScanStats accumulates per-request scan work: rows delivered by the
// merge, blocks decoded, and blocks skipped undecoded by zone-map
// pruning. Counters are atomic — decode workers update them concurrently.
type ScanStats struct {
	Records       atomic.Int64
	BlocksDecoded atomic.Int64
	BlocksPruned  atomic.Int64
}

type scanStatsKey struct{}

// ContextWithScanStats returns a context carrying s; scans started under
// it add their work to the counters.
func ContextWithScanStats(ctx context.Context, s *ScanStats) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, scanStatsKey{}, s)
}

// ScanStatsFrom returns the context's scan counters, or nil.
func ScanStatsFrom(ctx context.Context) *ScanStats {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scanStatsKey{}).(*ScanStats)
	return s
}
