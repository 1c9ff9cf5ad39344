# Drives the --metrics manifest round trip as a ctest: every program that
# writes a run manifest (ufc_cli solve, example_distributed_demo and
# example_controller_demo) writes one into WORKDIR, and
# scripts/check_bench_json.py validates each against the ufc-run-v1 schema.
# Invoked from tests/CMakeLists.txt with -DUFC_CLI=..., -DDISTRIBUTED_DEMO=...,
# -DCONTROLLER_DEMO=..., -DPYTHON=..., -DCHECKER=..., -DWORKDIR=...
foreach(required UFC_CLI DISTRIBUTED_DEMO CONTROLLER_DEMO PYTHON CHECKER
                 WORKDIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "ManifestRoundTrip.cmake: ${required} not set")
  endif()
endforeach()

# Runs the command in ARGN with `--metrics <WORKDIR>/<name>_manifest.json`
# appended and validates the manifest it wrote.
function(write_and_check name)
  set(manifest "${WORKDIR}/${name}_manifest.json")
  file(REMOVE "${manifest}")
  execute_process(
    COMMAND ${ARGN} --metrics "${manifest}"
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE run_status)
  if(NOT run_status EQUAL 0)
    message(FATAL_ERROR "${name} --metrics exited with ${run_status}")
  endif()
  if(NOT EXISTS "${manifest}")
    message(FATAL_ERROR "${name} reported success but wrote no manifest")
  endif()
  execute_process(
    COMMAND "${PYTHON}" "${CHECKER}" "${manifest}"
    RESULT_VARIABLE check_status)
  if(NOT check_status EQUAL 0)
    message(FATAL_ERROR
            "${name} manifest failed ufc-run-v1 validation (${check_status})")
  endif()
endfunction()

write_and_check(ufc_cli "${UFC_CLI}" solve)
write_and_check(distributed_demo "${DISTRIBUTED_DEMO}")
write_and_check(controller_demo "${CONTROLLER_DEMO}")
