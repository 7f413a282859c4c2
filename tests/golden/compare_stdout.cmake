# Run a program and compare its stdout byte for byte with a golden
# file, using nothing beyond CMake itself:
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>"
#         -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
#
# On a mismatch the actual stdout is written to ACTUAL for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif ()
file(READ ${GOLDEN} expected)
if (NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    message(FATAL_ERROR "stdout differs from the golden:\n"
                        "  diff ${GOLDEN} ${ACTUAL}")
endif ()
