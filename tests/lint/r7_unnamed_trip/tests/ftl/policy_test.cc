// Fixture tree: the policy test R7 reads. It names "rr" but not the
// other registered policy.

const char *const kTested[] = {"rr"};
