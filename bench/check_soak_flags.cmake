# Validates ext_soak_churn's own flag parsing: each malformed value
# must exit 2 with a usage line that names the soak flags, and a
# well-formed set must run.
# Run as: cmake -DSOAK=<path to ext_soak_churn> -P check_soak_flags.cmake

if(NOT DEFINED SOAK)
    message(FATAL_ERROR "pass -DSOAK=<path>")
endif()

foreach(args "--sim-hours;abc" "--sim-hours;-1" "--seed;xyz")
    execute_process(COMMAND "${SOAK}" ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    string(REPLACE ";" " " shown "${args}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "ext_soak_churn ${shown}: exit ${rc}, want 2")
    endif()
    if(NOT err MATCHES "--sim-hours" OR NOT err MATCHES "--seed")
        message(FATAL_ERROR
            "ext_soak_churn ${shown}: usage line lacks the soak flags:\n"
            "${err}")
    endif()
endforeach()

# Well-formed flags run: seed 1 creates a VM on its first op, which
# must start once (spawnStart() starts only the VMs that exist when it
# is called, and the soak calls it before any).
execute_process(COMMAND "${SOAK}" --seed 1 --ops 1 --sim-hours 0.5
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ext_soak_churn --seed 1 --ops 1: exit ${rc}:\n"
        "${err}")
endif()

message(STATUS "soak flag validation looks good")
