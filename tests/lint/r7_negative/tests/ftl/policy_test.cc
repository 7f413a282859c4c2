// Fixture tree: the policy test R7 reads; it names every registered
// policy.

const char *const kTested[] = {"greedy", "rr"};
