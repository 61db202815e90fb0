package main

// The default seed's output digests, pinned from the parent commit of
// the benchmark. A later change that alters the paper's outputs —
// frames, bits per phase, joules, answers — moves one of these, and
// the default-seed run then counts a failed operation.
const (
	pinnedFig7   = "d296bab4d4e09c38ffad61dd0874a75c5fdee55e29f73761fa3aef6308ed497c"
	pinnedServe  = "5a2e51c32933891760c2d2891751be64953f2a7558dcf8cec50c02a4fce0d802"
	pinnedReplay = "f425e5acef534baf599b1fbd2d793af996f998e8a7ab17489f4bbab18b1eec2c"
)
