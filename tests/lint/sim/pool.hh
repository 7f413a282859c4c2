// Fixture: R8's pool header. Pooled state at file scope is banned
// everywhere else, so this copy of sim/pool.hh may keep one.

#ifndef DSSD_SIM_POOL_HH
#define DSSD_SIM_POOL_HH

namespace dssd
{

struct BlockPool
{
    unsigned blocks = 0;
};

static BlockPool gSharedPool;

} // namespace dssd

#endif // DSSD_SIM_POOL_HH
