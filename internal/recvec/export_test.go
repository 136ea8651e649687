package recvec

// FallbackPasses reads fallbackPasses for the package's external tests.
func FallbackPasses() int64 { return fallbackPasses.Load() }

// HasEVEX is hasEVEX for the package's external tests.
var HasEVEX = hasEVEX
