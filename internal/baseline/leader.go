package baseline

// hsMsg is a Hirschberg-Sinclair message; batches of them travel each
// direction every round.
type hsMsg struct {
	Kind  int8 // 0 probe, 1 reply, 2 done
	ID    int32
	Hops  int32
	Phase int32
}

// hsBatch is the per-round payload per direction.
type hsBatch struct {
	Msgs []hsMsg
}
