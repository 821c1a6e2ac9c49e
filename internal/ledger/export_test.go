package ledger

// MaxEpisodes is the per-session closed-episode cap, for the external
// tests.
const MaxEpisodes = maxEpisodes
