# Header self-sufficiency check: every src/**/*.hpp must compile as the
# first (and only) include of a translation unit, so no header silently
# depends on what its includers happened to pull in first.
#
# For each header we generate a one-line TU under ${CMAKE_BINARY_DIR}/
# header_check/ and compile them all into an OBJECT library that is excluded
# from the default build — `ctest -R ufc_header_check` (or CI's lint job)
# builds it on demand via the ufc_header_check test below.

file(GLOB_RECURSE UFC_CHECKED_HEADERS CONFIGURE_DEPENDS
     ${PROJECT_SOURCE_DIR}/src/*.hpp)

set(UFC_HEADER_CHECK_TUS "")
foreach(header IN LISTS UFC_CHECKED_HEADERS)
  file(RELATIVE_PATH header_rel ${PROJECT_SOURCE_DIR}/src ${header})
  string(REPLACE "/" "__" tu_name ${header_rel})
  string(REGEX REPLACE "\\.hpp$" ".cpp" tu_name ${tu_name})
  set(tu ${CMAKE_BINARY_DIR}/header_check/${tu_name})
  file(CONFIGURE OUTPUT ${tu} CONTENT "#include \"${header_rel}\"\n")
  list(APPEND UFC_HEADER_CHECK_TUS ${tu})
endforeach()

add_library(ufc_header_check OBJECT EXCLUDE_FROM_ALL ${UFC_HEADER_CHECK_TUS})
target_include_directories(ufc_header_check PRIVATE ${PROJECT_SOURCE_DIR}/src)
target_link_libraries(ufc_header_check PRIVATE ufc_warnings)

add_test(NAME ufc_header_check
         COMMAND ${CMAKE_COMMAND} --build ${CMAKE_BINARY_DIR}
                 --target ufc_header_check --config $<CONFIG>)
set_tests_properties(ufc_header_check PROPERTIES TIMEOUT 600
                     RUN_SERIAL TRUE)
