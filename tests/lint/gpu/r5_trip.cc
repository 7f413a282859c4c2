// Fixture: R5 violation — gpu/ is not a layer of the DAG.  // trip:R5

#include "sim/engine.hh"
