// Fixture: R5 violations — ftl/ sits below core/ and hil/ in the
// include DAG (ftl -> nand, sim), so including either points up.

#include "ftl/mapping.hh"

#include "core/ssd.hh"        // trip:R5
#include "hil/nvme_host.hh"   // trip:R5
