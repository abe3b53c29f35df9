// Fixture: an allow() annotation over a line with nothing to silence
// (ANALYZE-001), next to a string literal that only quotes the marker.
#ifndef BADREPO_SIM_STALE_ALLOW_H_
#define BADREPO_SIM_STALE_ALLOW_H_

inline unsigned
fixtureConstant()
{
    // harmonia-lint: allow(DET-001) stale: no RNG call below
    return 42;
}

inline const char *
fixtureHint()
{
    return "harmonia-lint: allow(DET-002)";
}

#endif // BADREPO_SIM_STALE_ALLOW_H_
