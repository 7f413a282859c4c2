# Run a program with --trace-out and validate the trace it writes:
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>" -DTRACE=<file>
#         -DPYTHON=<python3> -DCHECKER=<tools/trace_check.py>
#         -P check_trace.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args} --trace-out=${TRACE}
                OUTPUT_QUIET RESULT_VARIABLE status)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif ()
execute_process(COMMAND ${PYTHON} ${CHECKER} ${TRACE}
                RESULT_VARIABLE status)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "trace_check rejected ${TRACE}")
endif ()
