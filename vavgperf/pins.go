package main

// defaultSeed is the seed whose digests are pinned below.
const defaultSeed = 1

// pinDigests are the digests a workload must reproduce at the default
// seed and full size: unit covers what Algorithm.Run or Sweep reports,
// full the per-vertex rounds and outputs the traced run sees. They change
// only when a change to the simulator changes its results.
type pinDigests struct{ unit, full digest }

var pins = map[string]pinDigests{
	"rounds-forests": {
		unit: "a2db537c005d401e0e96e54928068d83da474f56eaf70c26ed2a8cae9cb7ba4e",
		full: "94c8664843c391b0647105d639045048963961a71da6d46a98f8a75f7eeeed40",
	},
	"boot-ring-file": {
		unit: "64705d6cf7d65d561be983d7ff912b608343125bee5b2dbbe92850143c6a4b9a",
		full: "3944caf3b2e6f78ac02e11a2e2ddfafb234c78c84e491f0373110491db3ac2dd",
	},
	"sweep-mis": {
		unit: "b44cd8d6f4de4231fa32ded6a6476ecd9e468f7f1b3e20f847885057ab7a99d3",
		full: "5683a84e2d20e6cd52bc53e268a372b3d7b2203d587256097ee2f1ab3b3658d5",
	},
	"faults-shuffled": {
		unit: "67b9201afd8aafcef945422399ebc8e428ed759d71b44934b5ec8be0b74701aa",
		full: "e461620a1e8efe68ad7bcb465e7dc32fc7dbffc3205d6300acc003ad02c1d8b3",
	},
}
