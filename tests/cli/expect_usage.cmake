# Runs PROGRAM with a flag that no program takes and checks that it
# exits 1 before simulating anything (nothing on stdout), with the
# usage text generated from its option table on stderr. The flags that
# text lists must be exactly FLAGS (space-separated, in table order).
execute_process(COMMAND ${PROGRAM} --no-such-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
get_filename_component(name ${PROGRAM} NAME)
string(REGEX MATCHALL "\n  --[a-z-]+" listed "${err}")
string(REPLACE "\n  " "" listed "${listed}")
list(JOIN listed " " listed)
if (NOT rc EQUAL 1 OR NOT out STREQUAL ""
    OR NOT err MATCHES "^usage: ${name}"
    OR NOT err MATCHES "\nfatal: unknown option '--no-such-flag'\n$"
    OR NOT listed STREQUAL FLAGS)
    message(FATAL_ERROR "${name} --no-such-flag exited ${rc} listing "
                        "'${listed}'; want exit 1 listing '${FLAGS}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif ()
