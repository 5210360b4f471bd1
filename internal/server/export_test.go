package server

// SetExtentCompactMin sets the mmap backend's extent compaction trigger
// for a test server: merge from n sealed extents up, or never when n is
// negative (mmapstore.Config.CompactMinExtents). plad always runs the
// default.
func SetExtentCompactMin(cfg *Config, n int) { cfg.extents.CompactMinExtents = n }
