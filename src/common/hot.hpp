// APN_HOT: marks a function as being on the per-event hot path. It is a
// compiler hint only (the `hot` attribute: branch and layout). The event
// engine's zero-allocation guarantee (docs/ARCHITECTURE.md) is checked by
// the exact zero counts of the SteadyStateAllocs cases in
// tests/test_alloc.cpp.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define APN_HOT __attribute__((hot))
#else
#define APN_HOT
#endif
