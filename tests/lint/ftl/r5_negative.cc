// Fixture: R5 near-miss negative control — ftl/ including itself, the
// layers below it and system headers; an upward include that is only
// a comment.

#include "ftl/mapping.hh"

#include <vector>

#include "nand/die.hh"
#include "sim/engine.hh"
// #include "core/ssd.hh" would point up the DAG.
