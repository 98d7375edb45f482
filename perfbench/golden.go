package main

// golden pins the SHA-256 of every checked output at the default seed: each
// sim Spec's `streamsim -json` document (the same bytes cmd/streamsim writes
// for that Spec), the sweep's rendered tables (checkpointed and resumed
// alike) and the serve reply bodies concatenated in Spec order.
var golden = map[string]string{
	"sim/base-lbm17":          "7e68486e99639278e0e74459f2019c60e0f8b067a73e214f1143c6653a2ec122",
	"sim/streamline-sphinx06": "b3a0d792ab04eb537ee74bc76f4deb6700ad5b6803e960bb1f27de115e0a4bf1",
	"sim/triangel-mcf06":      "f6c6530d0be56552d1fb84baf443cc5485569ef87828bb7fb2bb02f471c7c0c2",
	"sim/streamline-pr-4c":    "184357a6be7ccb841dda2cc8a1c9917ddb0b13fb42539bbbc5955122875ae7ae",
	"sweep/tables":            "51a9e426ab99d0d8d4365a3663224192b325850b39c0cb14902b90e33053df06",
	"serve/bodies":            "a6c3a279685dca68e9b2845a8a09e4371a887298a2a8f1ef835171f484ad9488",
}
