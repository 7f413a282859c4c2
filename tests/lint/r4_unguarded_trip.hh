// Fixture: R4 violation — a header with no include guard.  // trip:R4

inline int
unguardedHelper()
{
    return 1;
}
